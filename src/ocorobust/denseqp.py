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
passes; otherwise GI runs from the unconstrained optimum. A caller that
forms the guess itself (the controller's rollout map) hands it to the same
test and to GI (``_from_guess``); one that also forms the guess's stacked
products (the controller's step map, which composes them into its own rows)
hands those to the same rule (``kkt_status`` for one step, with equality
rows for the controller's optimized rows; ``keeps`` for a block of steps).
GI's first iteration from a
rejected guess, on a solver with inequality rows only, is written here for
the controller's step map, which forms its point from its rows moved along
one face: ``first_row`` picks the row and the step, ``row_multipliers``
applies GI's stopping test to the other rows of the point reached, and
``kkt_status`` decides it. ``guess_rows`` makes and tests the guess for many
linear terms at once. No state is kept between solves.

One rule, ``kkt_status``, makes every decision on one point, a guess or the
result of a GI step: the KKT residual, the status it leaves, and for a guess
GI's stopping test, with ``room`` for a caller whose products may round
otherwise than the solver's (the controller's optimized rows). ``keeps`` is
the same rule in numpy for a block of guesses at once.

A solver is built for one KKT tolerance ``tol``: ``DEFAULT_TOL``, except the
projector that ``plant.SteadyStateManifold`` builds with
``plant.PROJECTION_TOL``. Every solve, guess test and fallback reads it, and
GI's stopping threshold 0.1 tol, from the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FactorizationError
from .matlin import as_matrix, as_vector, numeric_rank, row_reduce, spd_inverse

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000
DROP_TOL = 1e-11  # GI's drop tolerance: a z'n or multiplier step r at most this is 0


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
    and the KKT check passes (``kkt_status``). In every other case (a
    binding row, or rank-deficient and possibly inconsistent equalities) it
    runs the GI iteration from the unconstrained optimum.

    ``tol``, fixed at construction, bounds the KKT residual of an "optimal"
    solve; a row passes GI's stopping test with a slack of at least
    -``stop_tol`` = -0.1 tol.
    """

    def __init__(self, hessian, ineq_normals=None, eq_normals=None, tol=DEFAULT_TOL):
        if not tol > 0:
            raise ValueError("tol must be positive")
        self.tol, self.stop_tol = tol, 0.1 * tol
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

    def solve(self, linear, ineq_offsets=None, eq_offsets=None):
        ineq_b = self.no_ineq if ineq_offsets is None else np.asarray(ineq_offsets, float)
        eq_b = self.no_eq if eq_offsets is None else np.asarray(eq_offsets, float)
        linear = np.asarray(linear, float)
        if self.eq_optimum:
            # With no equalities the guess is GI's own start point.
            sol = (self.kkt_q @ linear + self.kkt_b @ eq_b if self.meq
                   else self.kkt_q @ linear)
            n = linear.size
            return self._from_guess(linear, sol[:n], sol[n:], ineq_b, eq_b)[0]
        return self._cold(linear, ineq_b, eq_b)

    def _from_guess(self, linear, x, nu, ineq_b, eq_b):
        """``solve``'s answer from the equality-constrained optimum (x, nu)
        of ``linear``, which the caller formed (``solve`` itself, or
        ``oco.QuadraticStepMap``'s and ``oco.RolloutMap``'s rows). Returns
        (solution, kept): kept is True when ``kkt_status`` finds the guess,
        with zero inequality multipliers, "optimal"; it is then the solution.
        A rejected guess goes on to GI from the unconstrained optimum
        (``_cold``).
        """
        guess = self._assemble(self.stacked @ x, linear, ineq_b, eq_b, x, None, nu, "optimal")
        if guess is not None and guess.status == "optimal":
            return guess, True
        return self._cold(linear, ineq_b, eq_b), False

    def _cold(self, linear, ineq_b, eq_b):
        """The GI iteration from the unconstrained optimum, with its status
        and multipliers checked by ``_assemble``."""
        cd = np.concatenate([eq_b, -ineq_b])
        x, active, mult, signs, status = _gi_core(self, -(self.hinv @ linear), cd)
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
        return self._assemble(self.stacked @ x, linear, ineq_b, eq_b, x, lam, nu, status)

    def first_row(self, viol):
        """GI's first iteration from a guess with the row residuals ``viol``
        = A x - b, on a solver with inequality rows only: (j, t), the most
        violated row j (the lowest index on ties, as GI's argmin) and the
        step t = -slack / z'C_j' (slack = -viol_j) along z = H^-1 C_j'
        (``hinv_cn[:, j]``), which is also row j's multiplier. None unless
        row j fails GI's stopping test with a finite residual and z'C_j' is
        above GI's drop tolerance: a NaN row is the argmax, and a +inf row
        would step without end. The controller's face rows
        (``oco._face_rows``) step by it; ``_gi_core`` takes the same row and
        step in its first iteration."""
        j = int(np.argmax(viol))
        top = float(viol[j])
        ztn = float(self.cn[j] @ self.hinv_cn[:, j])
        if not (self.stop_tol < top < np.inf and ztn > DROP_TOL):
            return None
        return j, top / ztn

    def row_multipliers(self, viol, j, step):
        """The multipliers of the point row j's step (``first_row``) reached,
        with the row residuals ``viol`` there: ``step`` in row j and zero
        elsewhere, or None when another row fails GI's stopping test (GI
        zeroes the active row's slack in its test; a None here is where GI
        would go on to a second iteration). ``kkt_status`` with them then
        decides the point."""
        viol = viol.copy()
        viol[j] = 0.0
        if not float(np.maximum.reduce(viol)) <= self.stop_tol:
            return None
        lam = np.zeros(viol.size)
        lam[j] = step
        return lam

    def guess_rows(self, linears, ineq_offsets):
        """The fast path of ``solve`` for many linear terms at once, on a
        solver with inequality rows only: returns the unconstrained optimum
        x = -H^-1 q of each row q of ``linears`` (one product) and whether
        ``solve`` keeps it (``keeps``, on every row's stacked products from
        one more product). With one variable every product is a single
        multiplication, so the terms are those ``_from_guess`` forms to the
        bit; with more, the batched products may round differently in the
        last bit, which can move only a row within that rounding of a bound.
        """
        x = linears @ self.kkt_q.T
        prod = x @ self.stacked.T
        n = x.shape[1]
        return x, self.keeps(prod[:, :n] + linears, prod[:, n:] - ineq_offsets)

    def keeps(self, grad, viol):
        """Whether ``solve`` keeps a guess x of a solver with inequality rows
        only, from its stacked products: the stationarity rows ``grad`` = H x
        + q and the row residuals ``viol`` = A x - b, for one guess (1-D) or
        one guess per row (2-D), formed by ``guess_rows`` or by the caller
        (the rows of a block of ``oco.QuadraticStepMap`` steps, for
        ``oco.settled_rows``; tests also call it on one guess).

        ``kkt_status``'s rule for a guess, in numpy for a block of rows; the
        scalar form is cheaper on one point, so a serial controller step
        decides its one guess with ``kkt_status``. Every row
        passes GI's stopping test and every KKT term of the zero-multiplier
        point is within tol, so a NaN or inf term rejects the guess: NaN
        fails the first test and the gradient bound, a row at -inf (whose
        complementarity term 0 * -inf is NaN) the second. A block's rows are
        reduced along the step axis (``matlin.row_reduce``), to the same bits.
        """
        if viol.ndim == 1:
            worst, least = np.maximum.reduce(viol), np.minimum.reduce(viol)
            grad_sq = np.add.reduce(grad * grad)
        else:
            worst, least = row_reduce(np.maximum, viol), row_reduce(np.minimum, viol)
            grad_sq = row_reduce(np.add, grad * grad)
        return (worst <= self.stop_tol) & (least > -np.inf) & (np.sqrt(grad_sq) <= self.tol)

    def _assemble(self, prod, linear, ineq_b, eq_b, x, lam, nu, status):
        """The point (x, lam, nu) as a solution, with ``kkt_status``'s
        residual; an "optimal" ``status`` becomes its status, any other
        stays. ``prod`` is ``stacked @ x``: H x, then the inequality and the
        equality rows. lam None is a guess with zero inequality multipliers
        (returned as the shared ``no_ineq``); it gives None when a row fails
        GI's stopping test.
        """
        n, mineq = x.size, ineq_b.size
        grad = prod[:n] + linear
        if mineq and lam is not None:
            grad += self.ineq_normals.T @ lam
        if self.meq:
            grad += self.eq_normals.T @ nu
        checked = self.kkt_status(grad, prod[n:n + mineq] - ineq_b if mineq else None, lam,
                                  prod[n + mineq:] - eq_b if self.meq else None)
        if checked is None:
            return None
        return QpSolution(x=x, kkt_residual=checked[0],
                          status=checked[1] if status == "optimal" else status,
                          ineq_multipliers=self.no_ineq if lam is None else lam,
                          eq_multipliers=nu)

    def kkt_status(self, grad, viol=None, lam=None, eq_res=None, room=0.0):
        """The solver's one acceptance rule for a point x: (KKT residual,
        status) from its stationarity rows ``grad`` = H x + q + A' lam + E'
        nu, its row residuals ``viol`` = A x - b, its inequality multipliers
        ``lam`` and its equality residuals ``eq_res`` = E x - b_eq (``viol``
        or ``eq_res`` None: the solver has no such rows).

        The residual is the largest KKT term: |grad|, the largest row
        residual above 0, the largest |lam_i viol_i| and negative multiplier,
        and the largest |eq_res|; NaN or inf when a term is. The status is
        "optimal" when the residual plus ``room`` is within tol, else
        "max_iter" (a finite residual) or "non_finite". ``room`` is what a
        caller that formed the rows in products other than the solver's
        adds for their rounding (``oco.OptimizedRows``); the residual does
        not include it.

        lam None is a guess with zero multipliers, which also must pass GI's
        stopping test (slack b - A x >= -stop_tol on every row): None when a
        row fails it. One max and one min of the row residuals give that
        test and the terms: with lam = 0 the complementarity term is 0 *
        min(viol), NaN exactly when a row is NaN or -inf (a +inf row has
        failed the stopping test). ``keeps`` is this rule for many guesses at
        once, on a solver with inequality rows only.
        """
        terms = [math.sqrt(grad @ grad)]
        if viol is not None:
            if lam is None:
                top = float(np.maximum.reduce(viol))
                if top > self.stop_tol:
                    return None
                terms += [max(top, 0.0), 0.0 * float(np.minimum.reduce(viol))]
            else:
                terms += [float(np.maximum.reduce(viol, initial=0.0)),
                          float(np.maximum.reduce(np.abs(lam * viol), initial=0.0)),
                          max(0.0, -float(np.minimum.reduce(lam, initial=0.0)))]
        if eq_res is not None:
            terms.append(float(np.maximum.reduce(np.abs(eq_res))))
        # max() skips a NaN that is not its first argument; the sum does not.
        total = sum(terms)
        res = max(terms) if total < np.inf else total
        if res + room <= self.tol:
            return res, "optimal"
        return res, "max_iter" if res < np.inf else "non_finite"


def _read_only_zeros(size):
    out = np.zeros(size)
    out.flags.writeable = False
    return out


def _gi_core(qp, x, cd, max_iter=DEFAULT_MAX_ITER):
    """Dual active-set iteration from the unconstrained optimum ``x``.

    ``cd`` holds the right-hand sides of ``qp.cn x >= cd``; a row stops the
    iteration once every slack is at least -``qp.stop_tol``. Step directions
    are slices of ``qp.hinv_cn`` and ``qp.gram``; each iteration solves one
    system the size of the active set. No validation.
    """
    cn, hinv_cn, gram, meq, stop_tol = qp.cn, qp.hinv_cn, qp.gram, qp.meq, qp.stop_tol
    mineq = cd.size - meq
    cn_in, cd_in = cn[meq:], cd[meq:]
    active: list[int] = []
    mult: list[float] = []
    signs: list[float] = []  # working sign of each active row (equalities may flip)
    feas_scale = 1.0 + float(np.abs(cd).max()) if cd.size else 1.0

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
                if slacks[cand] >= -stop_tol:
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
            if abs(slack) <= 1e-13 * feas_scale and ztn <= DROP_TOL and idx < meq:
                break  # redundant but consistent equality
            t1, block = np.inf, None
            for pos, j in enumerate(active):
                if j >= meq and r[pos] > DROP_TOL:
                    ratio = mult[pos] / r[pos]
                    if ratio < t1 - 1e-15:
                        t1, block = ratio, pos
            t2 = -slack / ztn if ztn > DROP_TOL else np.inf
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
