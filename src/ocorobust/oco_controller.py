"""Per-step online controller.

Each step runs the same pipeline on the measured state: predict mu steps
ahead under the shifted input plan, take one projected gradient step on the
previous cost to re-estimate the optimal steady state, compute an additional
input sequence that would reach the estimate, scale it back until the
tightened constraints hold, and emit the first input plus state feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denseqp import PrefactoredQp
from .errors import InfeasibleError, InitializationError, OcoRobustError, StepError
from .matlin import as_vector
from .plant import membership_zu, stage_values, stage_values_linear

# The optimized variant skips its rollout QP at a reach gap this small: the
# cap c_g |d| then allows only g = 0, but the QP's optimum can be nonzero in
# S_c's null space, which the rollout cost shapes, so solving would report a
# spurious cap fallback.
DEGENERATE_TOL = 1e-12
RUN_AHEAD_STEPS = 32  # the most rows of a LiftedSteps chunk; see also simkit.closed_loop
RUN_AHEAD_GROWTH = 100.0  # the largest norm of F^j a chunk may use (see LiftedSteps)
RUN_AHEAD_BLOCK = 1024  # the most rows of a LiftedSteps.run call; see simkit.closed_loop
_ONE = np.ones(1)


@dataclass
class ControllerConfig:
    gamma: float
    c_g: float | None = None
    rollout_builder: object = None  # rollout() -> (RolloutMap, offset shift or None)

    @property
    def variant(self):
        """The step's additional input: "optimized" when a rollout builder
        shapes it, else "explicit" (the least-norm input)."""
        return "explicit" if self.rollout_builder is None else "optimized"

    def effective_c_g(self, model):
        return self.c_g if self.c_g is not None else 1.01 * model.c_g_min


@dataclass
class ControllerState:
    plan: np.ndarray  # [u_pred; u_ss]: the mu-step input plan, then the
                      # steady-state input it converges to
    zeta_hat: tuple   # (theta_hat, eta_hat) steady-state estimate
    t: int

    @property
    def u_pred(self):
        return self.plan[:-len(self.zeta_hat[1])]

    @property
    def u_ss(self):
        return self.plan[-len(self.zeta_hat[1]):]


@dataclass
class StepDiagnostics:
    beta: float
    g_norm: float
    pred_state: np.ndarray
    ogd_target: tuple
    candidate_feasible: bool
    kkt_residual: float | None = None
    g_fallback: bool = False


class ControllerRows:
    """The controller's (horizon, .) columns, one row per step ``t``: the
    plan [u_pred; u_ss] (``u_pred`` and ``u_ss`` are views of it),
    theta_hat, eta_hat, pred_state, u, beta, g_norm, kkt_residual (NaN when
    the step has none), candidate_ok and g_fallback."""

    def __init__(self, n, m, mu, horizon):
        self.plan = np.empty((horizon, (mu + 1) * m))
        self.u_pred, self.u_ss = self.plan[:, :-m], self.plan[:, -m:]
        for name, width in dict(theta_hat=n, eta_hat=m, pred_state=n, u=m).items():
            setattr(self, name, np.empty((horizon, width)))
        self.beta, self.g_norm, self.kkt_residual = np.empty((3, horizon))
        self.candidate_ok, self.g_fallback = np.empty((2, horizon), bool)
        self.t = np.arange(horizon)

    def diagnostics(self, i):
        """Row i's ``StepDiagnostics``; a NaN kkt_residual reads as None."""
        kkt = float(self.kkt_residual[i])
        return StepDiagnostics(
            beta=float(self.beta[i]), g_norm=float(self.g_norm[i]),
            pred_state=self.pred_state[i], ogd_target=(self.theta_hat[i], self.eta_hat[i]),
            candidate_feasible=bool(self.candidate_ok[i]),
            kkt_residual=None if math.isnan(kkt) else kkt, g_fallback=bool(self.g_fallback[i]))


def _stack_rows(owner, blocks, *above):
    """One matrix of the rows ``above`` (arrays), then the named row blocks
    ``blocks``, in order; sets each block's name on ``owner`` to the slice
    of its rows."""
    at = sum(len(rows) for rows in above)
    for name, block in blocks.items():
        setattr(owner, name, slice(at, at + len(block)))
        at += len(block)
    return np.vstack([*above, *blocks.values()])


class RolloutMap:
    """A rollout QP over the additional input sequence g, with the fixed
    affine map of what a step needs from it.

    ``solver`` is a ``PrefactoredQp``: its first mu*m variables are g, any
    further ones (e.g. a slack) follow, and its equality rows are S_c padded
    with zero columns, of full row rank. The rows of ``linear`` (the QP's
    linear term) and of ``offsets`` (the part of its inequality offsets the
    step's own data set; the step's context adds a shift) are affine in w =
    [x_meas; candidate; theta_hat; d; 1], with zero columns for the reach
    gap d. The equality-constrained optimum [x; nu] = K_q linear + K_b d
    (``solver.kkt_q``, ``kkt_b``) is then affine in w too. One product of
    ``matrix`` with w (``product``) gives them all; the slices ``linear``,
    ``x``, ``nu`` and ``offsets`` pick them from it.
    """

    def __init__(self, solver, linear, offsets=None):
        if not (solver.eq_optimum and solver.meq):
            raise ValueError("a rollout solver needs equality rows of full row rank")
        nvar, cols = linear.shape
        optimum = solver.kkt_q @ linear
        optimum[:, cols - 1 - solver.meq:cols - 1] += solver.kkt_b  # the d columns
        self.matrix = _stack_rows(self, dict(
            linear=linear, x=optimum[:nvar], nu=optimum[nvar:],
            offsets=np.zeros((0, cols)) if offsets is None else offsets))
        self.solver = solver

    def product(self, x_meas, candidate, theta_hat, d):
        """The map's rows at one step's data."""
        return self.matrix @ np.concatenate((x_meas, candidate, theta_hat, d, _ONE))


class QuadraticRolloutBuilder(RolloutMap):
    """Rollout objective with fixed stage weights and the controller's own
    steady-state estimate as target; the generic choice for the optimized
    additional-input variant. The weights fix the Hessian, so the solver and
    its map are built here once.

    The rollout of g + candidate from x has the states c_x + E g, with c_x =
    P0 x + E candidate, and the inputs c_v + (I + K_b E) g, with c_v =
    candidate + K_b c_x (K_b = I (x) K); the stage cost is weighted against
    theta_hat at every stage. So the linear term is affine in (x, candidate,
    theta_hat): lin_x x + lin_c candidate - lin_theta theta_hat, the map's
    ``linear`` rows. The QP has no inequality rows.
    """

    def __init__(self, model, q_x, q_u):
        mu = model.mu
        e, p0 = model._pu, model._px
        kb = np.kron(np.eye(mu), model.k)
        mmap = np.eye(mu * model.m) + kb @ e
        qx_bar = np.kron(np.eye(mu), np.asarray(q_x, float))
        qu_bar = np.kron(np.eye(mu), np.asarray(q_u, float))
        h = e.T @ qx_bar @ e + mmap.T @ qu_bar @ mmap
        self.hessian = 0.5 * (h + h.T)
        qxe, qum = qx_bar @ e, qu_bar @ mmap
        lin_x = qxe.T @ p0 + qum.T @ kb @ p0
        lin_c = qxe.T @ e + qum.T @ mmap
        lin_theta = qxe.T @ np.tile(np.eye(model.n), (mu, 1))
        d_one = np.zeros((mu * model.m, model.n + 1))  # the columns of d and 1
        super().__init__(PrefactoredQp(self.hessian, eq_normals=model.s_c),
                         np.hstack([lin_x, lin_c, -lin_theta, d_one]))

    def rollout(self):
        """The map of every step, with no offset shift."""
        return self, None


class QuadraticStepMap:
    """A step's affine part on ``tables`` and ``manifold``, for
    ``QuadraticCost``'s own gradient with ``cost``'s weights (q_x, q_u) and
    step size ``gamma``. The map keeps ``tables``, ``manifold`` and
    ``gamma``, which ``simkit.closed_loop`` checks for a map built
    beforehand; which weight pair it serves is its caller's (see ``step``).

    With the quadratic gradient (Q_x (pred - ref_x), Q_u (v - ref_u)), the
    projection's linear term q0 + 2 gamma M [gx; gv] (``ogd_step``) is affine
    in z = (x_meas, candidate, ref_x, ref_u), as are the candidate's stage
    residuals and pred (the rows of ``TighteningTables.rollout_x`` and
    ``rollout_u``). So is the rest of the step wherever the projector keeps
    its unconstrained guess and beta = 1: the guess eta = -H_p^-1 linear
    (``manifold.projector.kkt_q``) and theta = G_K eta, the reach gap d =
    theta - pred, the least-norm input g = S_c^+ d and the stage residuals
    base + R_u g of the blended plan (``explicit_map``), the plan [candidate
    + g; eta] and the input plan[:m] + K x_meas. So are the guess's stacked
    products, on which the projector decides it (``PrefactoredQp.keeps``):
    the stationarity rows H_p eta + linear and the S-bar rows A eta - b,
    composed here from ``manifold.projector.stacked``. One product of
    ``matrix`` with [z; 1] gives them all; the slices ``base``, ``linear``,
    ``pred``, ``theta``, ``gap``, ``g``, ``reach``, ``eta``, ``plan``,
    ``u``, ``grad`` and ``viol`` pick them from it. ``step`` keeps a row
    only where its condition holds, and takes the module functions
    everywhere else. The optimized variant takes its rows from the map's
    ``OptimizedRows`` for its rollout map (``optimized``).

    While one row j of S-bar is active, the projection's solution is the
    guess moved along one fixed direction: eta + lam_j d_j, with d_j = -H_p^-1
    a_j and lam_j the row's multiplier (GI's one-row step, Goldfarb & Idnani
    1983), so every row moves by lam_j times a fixed column: the map's
    affine law on that face (Bemporad, Morari, Dua & Pistikopoulos,
    *Automatica* 2002). ``faces`` holds these columns, one per row of S-bar,
    each the image of d_j under the same composition as the rows (with a_j
    added to the stationarity rows); a separate array, so ``matrix`` keeps
    its bits. ``face_rounding`` bounds how far they and the projector's own
    one-row step may round the face point's KKT terms (``_face_rows``, which
    takes a rejected guess's step from them).
    """

    def __init__(self, tables, manifold, cost, gamma):
        m, nm = tables.ogd_map.shape
        n = nm - m
        r = tables.residual_offsets.size
        nv = tables.rollout_u.shape[1]
        rx, ru = tables.rollout_x, tables.rollout_u
        v, q0, pred = slice(r, r + m), slice(r + m, r + 2 * m), slice(r + 2 * m, None)
        step_x = (2.0 * gamma) * (tables.ogd_map[:, :n] @ cost.q_x)  # 2 gamma M_x Q_x
        step_v = (2.0 * gamma) * (tables.ogd_map[:, n:] @ cost.q_u)  # 2 gamma M_v Q_u
        lin_x = rx[q0] + step_x @ rx[pred] + step_v @ rx[v]
        lin_u = ru[q0] + step_x @ ru[pred] + step_v @ ru[v]
        # Columns: x_meas (n), candidate (nv), ref_x (n), ref_u (m), 1.
        base = np.hstack([rx[:r], ru[:r], np.zeros((r, n + m)),
                          -tables.residual_offsets[:, None]])
        linear = np.hstack([lin_x, lin_u, -step_x, -step_v, np.zeros((m, 1))])
        cols = linear.shape[1]
        pred_rows = np.hstack([rx[pred], ru[pred], np.zeros((n, n + m + 1))])
        eta = manifold.projector.kkt_q @ linear
        theta = manifold.g_k @ eta
        gap = theta - pred_rows
        both = tables.explicit_map @ gap  # [g; growth]
        g = both[:nv]
        head = g + np.hstack([np.zeros((nv, n)), np.eye(nv), np.zeros((nv, n + m + 1))])
        u = head[:m] + np.hstack([tables.feedback, np.zeros((m, nv + n + m + 1))])
        # The projector's stacked products of the guess: H eta + linear and
        # A eta - b, with S-bar's offsets b in the constant column. They go
        # first, with zero rows up to a multiple of 8: BLAS kernels take a
        # product's rows in groups (of 4 in OpenBLAS's), and a row's place
        # in its group sets how its sum rounds, so every other row keeps the
        # bits it has in a map without them.
        stacked = manifold.projector.stacked @ eta
        grad, viol = stacked[:m] + linear, stacked[m:]
        viol[:, -1] -= manifold.sbar.offsets
        self.grad, self.viol = slice(0, m), slice(m, len(stacked))
        self.matrix = _stack_rows(self, dict(
            guess=np.vstack([grad, viol, np.zeros((-len(stacked) % 8, cols))]),
            base=base, linear=linear, pred=pred_rows, theta=theta, gap=gap, g=g,
            reach=base + both[nv:], head=head, eta=eta, u=u))
        self.plan = slice(self.head.start, self.eta.stop)  # [candidate + g; eta]
        # The faces: d_j is column j of ``projector.hinv_cn``. Stored by
        # column, so that a step's one face is contiguous.
        projector = manifold.projector
        d = projector.hinv_cn
        theta_d = manifold.g_k @ d
        both_d = tables.explicit_map @ theta_d
        stacked_d = projector.stacked @ d
        faces = np.zeros((len(self.matrix), d.shape[1]), order="F")
        faces[self.grad] = stacked_d[:m] + projector.ineq_normals.T
        faces[self.viol] = stacked_d[m:]
        faces[self.theta] = faces[self.gap] = theta_d
        faces[self.g] = faces[self.head] = both_d[:nv]
        faces[self.reach] = both_d[nv:]
        faces[self.eta] = d
        faces[self.u] = both_d[:m]
        self.faces = faces
        # How far these rows and the projector's own one-row step, from z =
        # [x_meas; candidate; ref_x; ref_u; 1] and the multiplier lam, may
        # round a face point's stationarity norm and its row residuals, per
        # unit of |z| + lam: the row sums of |H| |eta rows| + |linear rows|
        # and of |A| |eta rows| + |b|, and the largest entries of |H| |d_j| +
        # |a_j| and of |A| |d_j|, each term summed with at most cols + m + 3
        # roundings (as ``OptimizedRows.rounding``), and sqrt(m) for the norm.
        h, a = np.abs(projector.hessian), np.abs(projector.ineq_normals)
        eta_abs, d_abs = np.abs(eta), np.abs(d)
        unit = (cols + m + 3) * np.finfo(float).eps
        self.face_rounding = (
            unit * math.sqrt(m) * max(float((h @ eta_abs + np.abs(linear)).sum(axis=1).max()),
                                      float((h @ d_abs + a.T).max())),
            unit * max(float(((a @ eta_abs).sum(axis=1) + np.abs(manifold.sbar.offsets)).max()),
                       float((a @ d_abs).max())))
        self.tables, self.manifold, self.gamma = tables, manifold, gamma
        self._lifted = None  # the map's LiftedSteps, built on first use
        self._optimized = []  # its OptimizedRows, one per rollout map, built on first use

    def rows_at(self, x_meas, candidate, *ref):
        """The map's rows at (x_meas, candidate) and the reference [ref_x;
        ref_u], given as one row or as its two parts: either way the same
        product, so a reference handed as data takes the same step to the
        bit as the cost's own."""
        return self.matrix @ np.concatenate((x_meas, candidate, *ref, _ONE))

    def optimized(self, rollout_map):
        """The map's ``OptimizedRows`` for the ``RolloutMap`` ``rollout_map``:
        built on the first call for that map and kept. A step map serves the
        rollout maps of one weight pair's phases, a few at most, so they are
        found by identity in a list."""
        for rows in self._optimized:
            if rows.rollout_map is rollout_map:
                return rows
        rows = OptimizedRows(self, rollout_map)
        self._optimized.append(rows)
        return rows

    def lifted(self, a, b):
        """The map's ``LiftedSteps`` for the plant x+ = A x + B u + w (``a``,
        ``b``) that its tables were built for; built on the first call and
        kept. The tables belong to one model, so every call passes that
        model's A and B, and later calls do not read them."""
        if self._lifted is None:
            self._lifted = LiftedSteps(self, a, b)
        return self._lifted


class OptimizedRows:
    """A ``QuadraticStepMap``'s rows for the optimized variant with one
    ``RolloutMap``, the map of the step's rollout QP.

    Where the projector keeps the step map's guess, the rollout map's w =
    [x_meas; candidate; theta_hat; d; 1] is affine in the step map's z =
    [x_meas; candidate; ref_x; ref_u; 1], since theta_hat and the reach gap
    d are the step map's ``theta`` and ``gap`` rows. So the rollout map's
    rows composed with them are affine in z too, and with them the rollout
    QP's equality-constrained optimum: on the region where no inequality row
    binds, the QP's solution is one affine law of its data, the observation
    of explicit MPC (Bemporad, Morari, Dua & Pistikopoulos, *Automatica*
    2002). The rows hold, from that optimum, g (its first mu*m variables),
    g's growth R_u g of the stage residuals (``growth``), the residuals base
    + R_u g of the plan at beta = 1 (``reach``), the plan [candidate + g;
    eta] and the input plan[:m] + K x_meas; and the optimum's stacked
    products, on which the rollout solver decides it
    (``PrefactoredQp.kkt_status``), composed from ``solver.stacked`` as
    ``QuadraticStepMap`` composes the projector's: the stationarity rows H x
    + linear + E' nu (``rollout_grad``), the inequality rows A x less the
    map's offsets (``rollout_viol``; the step subtracts its offset shift)
    and the equality residual E x - d (``rollout_eq``).

    The rows keep the step map's layout, with these g, reach, head and u in
    place of the explicit step's, and the four blocks above after them; so
    the step map's slices pick the rows here too, and every row the two
    share sits at the same place in its group of rows, where BLAS rounds it
    as the step map's product does (see ``QuadraticStepMap``; only the step
    map's last rows, when their count is not a multiple of 4, are grouped
    otherwise here: its ``u`` rows on the bundled double integrator). One
    product of ``matrix`` (``rows_at``) gives them all.

    Where a face of S-bar decides the projection (see ``QuadraticStepMap``),
    theta_hat and d move along the step map's ``faces`` columns, and so does
    everything composed from them: ``faces`` here holds the step map's
    columns of its rows before g, then these blocks composed from its
    ``theta`` and ``gap`` columns as the rows are, with no constant terms.
    A face step then goes on from ``additional_input`` as a kept guess's
    step does.
    """

    rows_at = QuadraticStepMap.rows_at  # the same product, of this matrix

    def __init__(self, step_map, rollout_map):
        matrix, tables, solver = step_map.matrix, step_map.tables, rollout_map.solver
        m, cols = tables.feedback.shape[0], matrix.shape[1]
        nv = step_map.g.stop - step_map.g.start
        n, nvar, mineq = solver.meq, solver.hessian.shape[0], solver.ineq_normals.shape[0]
        rollout = rollout_map.matrix

        def blocks(step_rows, lead, one, cand, feedback):
            """This variant's row blocks from ``step_rows`` (the step map's
            matrix or faces), with w's rows [lead; theta; d; one] in their
            columns, and the plan's and u's terms not from g (``cand``,
            ``feedback``)."""
            gap = step_rows[step_map.gap]
            rows = rollout @ np.vstack([lead, step_rows[step_map.theta], gap, one])
            x = rows[rollout_map.x]
            stacked = solver.stacked @ x
            g = x[:nv]
            growth = tables.residual_u @ g
            head = g + cand
            return dict(
                g=g, reach=step_rows[step_map.base] + growth, head=head,
                eta=step_rows[step_map.eta], u=head[:m] + feedback, growth=growth,
                rollout_grad=(stacked[:nvar] + rows[rollout_map.linear]
                              + solver.eq_normals.T @ rows[rollout_map.nu]),
                rollout_viol=stacked[nvar:nvar + mineq] - rows[rollout_map.offsets],
                rollout_eq=stacked[nvar + mineq:] - gap)

        # The step map's rows before g, as they are, then this variant's; w
        # from z: x_meas and candidate as they are, then theta_hat, d and 1.
        self.matrix = _stack_rows(self, blocks(
            matrix, np.eye(n + nv, cols), np.eye(1, cols, cols - 1), np.eye(nv, cols, n),
            np.hstack([tables.feedback, np.zeros((m, cols - n))])), matrix[:step_map.g.start])
        # The faces the same way, from the step map's: no constant terms.
        faces = step_map.faces
        k = faces.shape[1]
        self.faces = np.asfortranarray(np.vstack([faces[:step_map.g.start], *blocks(
            faces, np.zeros((n + nv, k)), np.zeros((1, k)), 0.0, 0.0).values()]))
        for name in ("grad", "viol", "base", "linear", "pred", "theta", "gap", "plan",
                     "face_rounding"):
            setattr(self, name, getattr(step_map, name))
        self.has_viol = mineq > 0
        self.rollout_map = rollout_map
        # How far the rollout map's own product and the solver's, from w,
        # may round the guess's KKT terms, per unit of |w|: the row sums of
        # |H| |x rows| + |linear rows| + |E'| |nu rows| and of |E| |x rows|
        # + |d columns|, each row's terms summed with at most cols + nvar + 2
        # roundings (Higham, *Accuracy and Stability of Numerical
        # Algorithms*, 2nd ed., 2002, sec. 3.1), and sqrt(nvar) for the
        # stationarity norm.
        abs_x = np.abs(rollout[rollout_map.x])
        sums = np.concatenate([
            (np.abs(solver.hessian) @ abs_x + np.abs(rollout[rollout_map.linear])
             + np.abs(solver.eq_normals.T) @ np.abs(rollout[rollout_map.nu])).sum(axis=1),
            (np.abs(solver.eq_normals) @ abs_x).sum(axis=1) + 1.0])
        self.rounding = ((rollout.shape[1] + nvar + 2) * np.finfo(float).eps
                         * math.sqrt(nvar) * float(sums.max()))

    def additional_input(self, out, x_meas, candidate, shift, gap_norm, c_g):
        """The optimized step's (g, growth, KKT residual) from the rows
        ``out`` at (``x_meas``, ``candidate``) of a step whose projection
        kept the step map's guess, with the rollout's offset shift ``shift``
        (None: none) and the reach gap's norm ``gap_norm``, where they
        decide it as ``additional_input_optimized`` decides it from its own
        products: DEGENERATE_TOL < |d| < inf, the rollout solver keeps the
        guess (``PrefactoredQp.kkt_status``) with room for those products'
        rounding (``room`` = ``rounding`` |w|, so their own test keeps it
        too), and |g| is within the cap c_g |d|. Else None, and the step
        takes ``additional_input_optimized``."""
        if not DEGENERATE_TOL < gap_norm < np.inf:
            return None
        viol = None
        if self.has_viol:
            viol = out[self.rollout_viol] if shift is None else out[self.rollout_viol] - shift
        theta = out[self.theta]
        w_norm = math.sqrt(x_meas @ x_meas + candidate @ candidate + theta @ theta
                           + gap_norm * gap_norm + 1.0)
        checked = self.rollout_map.solver.kkt_status(
            out[self.rollout_grad], viol, eq_res=out[self.rollout_eq],
            room=self.rounding * w_norm)
        if checked is None or checked[1] != "optimal":
            return None
        g = out[self.g]
        if _over_cap(g, c_g, gap_norm):
            return None
        return g, out[self.growth], checked[0]


class LiftedSteps:
    """Runs of explicit steps on an LTI plant x+ = A x + B u + w with
    measurements x + v, each step taken as ``step`` takes one that a
    ``QuadraticStepMap``'s rows settle, in closed form.

    Such a step's u and next candidate plan[m:] are the map's ``u`` and
    ``plan`` rows, affine in [x_meas; candidate; ref_x; ref_u; 1], so a
    step is affine in s = [x; candidate]: s+ = F s + E [v; w] + C r,
    with r = [ref_x; ref_u; 1] of the cost the step reads, and the states of
    a chunk of steps that read one r are MPC's stacked prediction form
    (Maciejowski, *Predictive Control with Constraints*, 2002, ch. 2):

        s_j = F^j s_0 + sum_{i<j} F^(j-1-i) (E e_i + C r).

    ``free`` stacks [F^j | (F^0 + ... + F^(j-1)) C] for j < ``steps``.
    Gamma is block Toeplitz, so ``forced`` holds only its blocks (F^k E)',
    k = steps - 2 down to 0, and ``windows`` indexes row j's noise [e_(j-steps+1);
    ...; e_(j-1)] (zero before e_0) in a padded copy of the noise. A chunk's
    states are then two products, and ``run`` chains chunks over a run of
    any length, each from the last state of the one before. The object keeps
    only these arrays: ``run`` takes the map, which owns it, for its rows.

    Rounding in F^j grows with its norm, so a chunk stops before the first
    power whose Frobenius norm exceeds RUN_AHEAD_GROWTH: ``steps`` is the
    smallest j >= 1 with ||F^j||_F > RUN_AHEAD_GROWTH, at most
    RUN_AHEAD_STEPS. Where F itself exceeds it, ``steps`` is 1: a chunk
    cannot advance, so ``run`` takes one step, from its start state.
    """

    def __init__(self, step_map, a, b):
        matrix, (n, m) = step_map.matrix, b.shape
        ns, cols = n + step_map.g.stop - step_map.g.start, matrix.shape[1]
        # s+ - [A x + w; 0], from [x_meas; candidate; r]
        step = np.vstack([b @ matrix[step_map.u], matrix[step_map.plan][m:]])
        f = step[:, :ns].copy()
        f[:n, :n] += a
        e = np.hstack([step[:, :n], np.eye(ns, n)])  # the columns of v and w
        powers = [np.eye(ns)]
        while len(powers) < RUN_AHEAD_STEPS:
            power = f @ powers[-1]
            if not math.sqrt(np.vdot(power, power)) <= RUN_AHEAD_GROWTH:
                break
            powers.append(power)
        powers = np.array(powers)
        reach = powers @ step[:, ns:]  # F^j C
        sums = np.cumsum(np.concatenate([np.zeros((1,) + reach.shape[1:]), reach[:-1]]), axis=0)
        self.steps = steps = len(powers)
        self.free = np.concatenate([powers, sums], axis=2).reshape(steps * ns, cols)
        self.forced = (powers[-2::-1] @ e).transpose(0, 2, 1).reshape(-1, ns)
        width = 2 * n * (steps - 1)
        self.windows = np.arange(steps)[:, None] * (2 * n) + np.arange(width)

    def run(self, step_map, x, candidate, refs, v, w):
        """The ``len(v)`` steps (at most 1 when ``steps`` is 1) from the plant
        state ``x`` and the candidate ``candidate``, with the controller's
        references ``refs`` (one [ref_x; ref_u] row per step, of the cost the
        step reads) and the noise rows ``v`` and ``w`` (the last w is not
        read), and their rows of ``step_map``, the map this object was built
        for, whose weights every reference belongs to; nothing is checked.
        The steps go in chunks of at most ``steps`` rows, each from the state
        of the chunk before's last row, so a chunk of k rows advances k - 1
        steps; a chunk also ends at each row whose reference differs from the
        row before's, so that every step a chunk advances reads one reference.
        Non-finite noise makes every later row non-finite, so the caller ends
        the run before it.

        A chunk's noise windows take ``steps`` x 2 n (``steps`` - 1) floats,
        whatever the run's length; per row, the run's other temporaries take
        about the map's row and column counts in floats: 1.1 KB per row on
        the bundled double integrator (with ``settled_rows``' check, by
        tracemalloc), about four times a ``RunRecord`` row, so
        ``simkit.closed_loop`` asks for at most RUN_AHEAD_BLOCK rows.

        Returns per step: x, x_meas, the map's rows, the plan, u, and
        (reach gap norm, g_norm).
        """
        rows, (n, ns), steps = len(v), (x.size, self.forced.shape[1]), self.steps
        states = np.empty((rows, ns))
        e = np.concatenate((v[:-1], w[:rows - 1]), axis=1)  # e_i = [v_i; w_i]
        window = np.zeros((2 * steps - 2, 2 * n))  # a chunk's noise, zero before its e_0
        z = np.empty((rows, step_map.matrix.shape[1]))
        z[:, ns:-1], z[:, -1] = refs, 1.0
        start = np.empty(z.shape[1])  # a chunk's first [x; candidate; ref; 1]
        start[:n], start[n:ns] = x, candidate
        # each chunk's first row: one every steps - 1 rows along each stretch
        # between hops (rows whose reference differs from the row before's),
        # so a chunk ends on the next one's first row, a hop at the latest
        hops = np.flatnonzero((refs[1:] != refs[:-1]).any(axis=1)) + 1
        cuts = [0, *hops.tolist(), rows - 1]
        firsts = list(range(rows)) if rows < 2 else [
            lo for a, b in zip(cuts, cuts[1:]) for lo in range(a, b, steps - 1)]
        for lo, hi in zip(firsts, firsts[1:] + [rows - 1]):  # a chunk: rows lo to hi
            k = hi - lo + 1
            start[ns:] = z[lo, ns:]
            states[lo:hi + 1] = (self.free[:k * ns] @ start).reshape(k, ns)
            if k > 1:
                window[steps - 1:steps + k - 2] = e[lo:hi]
                states[lo:hi + 1] += window.take(self.windows[:k]) @ self.forced
            start[:ns] = states[hi]  # the next chunk's first state
        z[:, :n] = x_meas = states[:, :n] + v
        z[:, n:ns] = states[:, n:]
        outs = z @ step_map.matrix.T
        norms = np.empty((rows, 2))
        gap, g = outs[:, step_map.gap], outs[:, step_map.g]
        norms[:, 0] = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        norms[:, 1] = np.sqrt(np.einsum("ij,ij->i", g, g))
        return states[:, :n], x_meas, outs, outs[:, step_map.plan], outs[:, step_map.u], norms


def initialize(model, tables, manifold, zeta0, x0_meas):
    """Build the t=0 plan from a steady-state guess.

    The plan holds eta0 for mu steps plus a least-norm correction pulling the
    mu-step prediction onto theta0. Raises InitializationError when the guess
    is outside the shrunk manifold or the plan misses the tightened sets.
    """
    theta0, eta0 = zeta0
    theta0 = as_vector(theta0, "theta0")
    eta0 = as_vector(eta0, "eta0")
    x0_meas = as_vector(x0_meas, "x0_meas")
    tol = model.membership_tol
    if not manifold.contains_zeta(theta0, eta0, tol=max(tol, 1e-7)):
        raise InitializationError("zeta0 is not a steady state inside the shrunk manifold")
    correction = model.s_c_pinv @ (model.a_k_powers[model.mu] @ (theta0 - x0_meas))
    u_pred = np.tile(eta0, model.mu) + correction
    ok, worst = membership_zu(tables, model, x0_meas, u_pred, tol=tol)
    if not ok:
        raise InitializationError(
            f"initial plan violates tightened constraints by {worst:.3e}; "
            "pick zeta0 closer to the measured initial state")
    return ControllerState(plan=np.concatenate([u_pred, eta0]), zeta_hat=(theta0, eta0), t=0)


def ogd_step(tables, manifold, grad_prev, gamma, pred_state, v, q0):
    """One projected gradient step on the previous cost from the predicted
    steady state (pred_state, u_ss).

    ``v`` = u_ss + K pred_state is the input the cost's gradient is taken at,
    and ``q0`` = -2 (G_K' pred_state + u_ss) the projection's linear term at
    the point itself; the stepped point (pred_state - gamma (gx + K' gv),
    u_ss - gamma gv) has q0 + 2 gamma M [gx; gv], with M = ``tables.ogd_map``.
    The gradient oracle is outside code, so its output is checked here.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    grad = np.concatenate(grad_prev.grad(pred_state, v))
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise ValueError("gradient oracle returned non-finite values")
    return project_manifold(manifold, q0 + (2.0 * gamma) * (tables.ogd_map @ grad))


def project_manifold(manifold, linear):
    """Euclidean projection onto the shrunk manifold of the (x, u) point whose
    projection QP has the linear term ``linear`` = -2 (G_K' x + u).

    Solved in u-coordinates with x = G_K u substituted, which is exact.
    """
    return _projected(manifold, manifold.projector.solve(
        linear, ineq_offsets=manifold.sbar.offsets))


def _projected(manifold, sol):
    """The steady state (theta, eta) of the projection QP's solution ``sol``,
    solved to the projector's KKT tolerance; a failed solve raises with its
    KKT residual, since a solve whose residual misses the tolerance reports
    "max_iter" (``PrefactoredQp.kkt_status``)."""
    if sol.status != "optimal":
        raise InfeasibleError(f"manifold projection failed: {sol.status} "
                              f"(KKT residual {sol.kkt_residual:.3g}, "
                              f"tol {manifold.projector.tol:g})")
    return manifold.zeta_of_u(sol.x)


def additional_input_explicit(tables, theta_hat, pred_state):
    """Least-norm input sequence g reaching theta_hat in mu steps, and its
    growth of the stage residuals (``residual_u @ g``): one product with
    ``tables.explicit_map``; g is linear in the gap, so a zero gap takes
    g = 0. Returns (g, growth)."""
    nv = tables.residual_u.shape[1]
    d = theta_hat - pred_state
    _gap_norm(d)  # rejects a non-finite gap
    both = tables.explicit_map @ d
    return both[:nv], both[nv:]


def _over_cap(g, c_g, gap_norm):
    """Whether the optimized input g breaks the norm cap c_g |d| (with
    relative room 1e-9), for the reach gap's norm ``gap_norm`` = |d|."""
    return math.sqrt(g @ g) > c_g * gap_norm * (1 + 1e-9)


def _gap_norm(d):
    """The norm of the reach gap d = theta_hat - pred_state; rejects NaN/inf."""
    norm = math.sqrt(d @ d)
    if not norm < np.inf:
        raise ValueError("theta_hat or pred_state has non-finite entries")
    return norm


def additional_input_optimized(model, rollout, x_meas, candidate, theta_hat, d, c_g):
    """Cost-shaped solution of the reachability constraint S_c g = d, the
    reach gap d = theta_hat - pred_state.

    ``rollout`` is the step's (``RolloutMap``, offset shift or None), as the
    rollout builder gives it. One product of the map gives the rollout QP's
    linear term and offsets and its equality-constrained optimum, which is
    the solution when the solver's guess test keeps it; otherwise the solver
    goes on from it (GI). Falls back to the explicit solution S_c^+ d when
    the solver fails or the norm cap c_g |d| is violated, reporting the
    fallback; any other error (e.g. a map of the wrong size) propagates.
    Returns (g, KKT residual, fallback).
    """
    nv = model.mu * model.m
    norm = _gap_norm(d)
    if norm <= DEGENERATE_TOL:
        return np.zeros(nv), None, False
    rollout_map, shift = rollout
    rows = rollout_map.product(x_meas, candidate, theta_hat, d)
    offsets = rows[rollout_map.offsets]
    try:
        sol, _ = rollout_map.solver._from_guess(
            rows[rollout_map.linear], rows[rollout_map.x], rows[rollout_map.nu],
            offsets if shift is None else offsets + shift, d)
    except (OcoRobustError, np.linalg.LinAlgError):
        return model.s_c_pinv @ d, None, True
    g = sol.x[:nv]
    if sol.status != "optimal" or _over_cap(g, c_g, norm):
        return model.s_c_pinv @ d, sol.kkt_residual, True
    return g, sol.kkt_residual, False


def max_beta(tables, model, x_meas, base_seq, g, tol=None, _base=None, _growth=None):
    """Largest beta in [0, 1] keeping base + beta*g inside the tightened sets.

    Every stage constraint is affine in beta, so the maximum is an exact
    per-facet ratio test. Raises when the base sequence itself is infeasible,
    which would mean the recursive feasibility invariant broke. ``_base`` is
    the base sequence's (stage residuals, worst residual) and ``_growth`` is
    g's growth of them, when the caller has them.
    """
    if tol is None:
        tol = model.membership_tol
    if _base is None:
        base_vals = stage_values(tables, x_meas, base_seq)
        worst = float(np.maximum.reduce(base_vals, initial=-np.inf))
    else:
        base_vals, worst = _base
    if not worst <= tol:  # NaN-safe: a non-finite x_meas or base_seq fails here
        raise InfeasibleError(
            f"candidate input sequence infeasible by {worst:.3e}; feasibility invariant broken")
    growth = stage_values_linear(tables, g) if _growth is None else _growth
    # Every row inside at beta = 1 means every ratio below is at least 1:
    # fl(a + b) <= 0 exactly when b <= -a. A non-finite g makes some row +inf
    # or NaN (U is compact, so some input row grows along any direction), so
    # it never takes this exit.
    if float(np.maximum.reduce(base_vals + growth)) <= 0.0:
        return 1.0
    peak = float(np.maximum.reduce(np.abs(growth)))
    if peak == 0.0:
        return 1.0
    if not peak < np.inf:
        raise ValueError("g has non-finite entries")
    mask = growth > 1e-14 * max(1.0, peak)
    rising = growth[mask]
    if not rising.size:
        return 1.0
    return float(min(1.0, np.minimum.reduce(np.maximum(-base_vals[mask], 0.0) / rising)))


def _face_rows(mapped, projector, out, viol, z_parts):
    """The rows of a step whose projection guess the projector rejected, at
    the point its one-row step reaches (``PrefactoredQp.first_row``: row j,
    multiplier lam, from the guess's ``viol`` rows): ``out`` + lam times
    face j of ``mapped`` (a ``QuadraticStepMap`` or ``OptimizedRows``).
    Kept where the projector's rule decides the point as it decides its own
    one-row step: every other row passes GI's stopping test
    (``row_multipliers``) and ``kkt_status`` finds it "optimal" with room
    for the rows' rounding: ``face_rounding`` times |z| + lam, the row
    residuals' part also times lam for the complementarity term lam viol_j
    (z is the concatenation of ``z_parts``). Else None, and the step takes
    ``PrefactoredQp._rejected``.
    """
    first = projector.first_row(viol)
    if first is None:
        return None
    j, lam = first
    face = out + lam * mapped.faces[:, j]
    viol = face[mapped.viol]
    multipliers = projector.row_multipliers(viol, j, lam)
    if multipliers is None:
        return None
    grad_unit, viol_unit = mapped.face_rounding
    z = np.concatenate(z_parts)
    z_norm = math.sqrt(z @ z + 1.0)
    room = (z_norm + lam) * max(grad_unit, viol_unit, lam * viol_unit)
    if projector.kkt_status(face[mapped.grad], viol, multipliers, room=room)[1] != "optimal":
        return None
    return face


def _rows_settle(gap_norm, worst, reach, tol):
    """Where the step map's rows (their guess kept) settle the explicit step
    at beta = 1, for one step (floats) or a block of steps (arrays,
    elementwise): the reach gap's norm ``gap_norm`` is finite (else
    ``_gap_norm`` raises), the candidate's worst stage residual ``worst`` is
    within ``tol`` (else ``max_beta`` raises), and the largest stage
    residual ``reach`` of the plan at beta = 1 is at most 0 (``max_beta``'s
    first exit). The step's g, plan and u are then the rows ``g``, ``plan``
    and ``u``.
    """
    return (gap_norm < np.inf) & (worst <= tol) & (reach <= 0.0)


def settled_rows(step_map, manifold, x_meas, outs, gap_norms, tol):
    """Which steps of a block ``step`` would take whole from the step map's
    rows ``outs`` (one row per step, at the step's ``x_meas`` and candidate):
    those with a finite ``x_meas`` (``as_vector``) whose guess the projector
    keeps on the rows ``grad`` and ``viol`` (``PrefactoredQp.keeps``, as
    ``step`` decides it) and whose rows settle the explicit step
    (``_rows_settle``, on the norms ``gap_norms`` of the rows' reach gaps).
    The explicit variant's steps only; a step with gamma <= 0 fails before
    its rows.
    """
    return (np.logical_and.reduce(np.isfinite(x_meas), axis=1)
            & manifold.projector.keeps(outs[:, step_map.grad], outs[:, step_map.viol])
            & _rows_settle(gap_norms, np.maximum.reduce(outs[:, step_map.base], axis=1),
                           np.maximum.reduce(outs[:, step_map.reach], axis=1), tol))


def step(state, model, tables, manifold, x_meas, grad_prev, options, step_map=None,
         ref=None):
    """Advance the controller one step; returns (u, new_state, diagnostics):
    ``step_row`` on two rows, the first holding ``state``'s plan."""
    rows = ControllerRows(model.n, model.m, model.mu, 2)
    rows.plan[0] = state.plan
    rows.t += state.t
    step_row(rows, 1, model, tables, manifold, x_meas, grad_prev, options, step_map, ref)
    new_state = ControllerState(plan=rows.plan[1],
                                zeta_hat=(rows.theta_hat[1], rows.eta_hat[1]), t=state.t + 1)
    return rows.u[1], new_state, rows.diagnostics(1)


def step_row(rows, i, model, tables, manifold, x_meas, grad_prev, options, step_map=None,
             ref=None):
    """Take step ``rows.t[i]`` from row i - 1's plan and write row i of the
    ``ControllerRows`` ``rows``; a failed step raises ``StepError``.

    ``ref`` is the previous cost's reference [ref_x; ref_u] as one row when
    the plant handed it as data (None: ``grad_prev``'s own ``ref_x`` and
    ``ref_u``); the gradient path then steps on ``grad_prev`` with that
    reference (``QuadraticCost.with_ref_x``).
    ``step_map`` is a ``QuadraticStepMap`` for ``grad_prev``'s weights,
    built on ``tables`` and ``manifold`` for ``options.gamma``; the map
    belongs to the caller, which keeps it for that weight pair
    (``simkit.closed_loop`` checks a map built beforehand once, before its
    first step), so the step does not check it. Without one the step calls
    the gradient oracle.
    With a map, the step makes one product: of the map, or in the
    optimized variant of the map's ``OptimizedRows`` for the step's rollout
    map, which holds the map's rows with the rollout's composed in. The
    projection keeps the map's guess when the projector's rule keeps it on
    the ``grad`` and ``viol`` rows (``PrefactoredQp.keeps``, its one rule
    ``kkt_status`` in numpy). A rejected guess takes the point of the
    projector's one-row step from the rows, moved along one face
    (``_face_rows``), where the same rule keeps that point; the step then
    goes on from those rows as from a kept guess's. Any other rejected
    guess goes on to the one-row step or GI (``PrefactoredQp._rejected``).
    The explicit variant then takes g, beta = 1, the plan and u from the
    rows where they settle the step (``_rows_settle``). The optimized
    variant takes g, its growth and its KKT residual from the rows where
    they decide it (``OptimizedRows.additional_input``: the rollout
    solver's ``kkt_status``, with the rows' rounding as its room), and then
    beta = 1, the plan and u from the rows where they settle the step; where
    they do not, ``max_beta`` gets the rows' g and growth. Where the rows do not
    decide g, the optimized variant takes its reach gap from the map's rows
    (while the guess or a face is kept) and g from
    ``additional_input_optimized``.
    Every other case takes the additional input, ``max_beta`` and the
    blend.
    """
    try:
        x_meas = as_vector(x_meas, "x_meas")
        m = model.m
        candidate = rows.plan[i - 1, m:]  # the plan shifted by one step, u_ss held
        out = None  # the map's rows, while the step keeps its guess
        rollout = None if options.rollout_builder is None else options.rollout_builder.rollout()
        if step_map is None:
            if ref is not None:
                n = x_meas.size
                grad_prev = grad_prev.with_ref_x(ref[:n], ref[n:])
            # One stacked product (see TighteningTables): the candidate's
            # stage residuals, the gradient point v, the projection's base
            # linear term q0 and the candidate's mu-step-ahead state pred.
            stacked = tables.rollout_x @ x_meas + tables.rollout_u @ candidate
            r = tables.residual_offsets.size
            base_vals = stacked[:r] - tables.residual_offsets
            pred = stacked[r + 2 * m:]
            theta_hat, eta_hat = ogd_step(tables, manifold, grad_prev, options.gamma, pred,
                                          stacked[r:r + m], stacked[r + m:r + 2 * m])
        else:
            if options.gamma <= 0:
                raise ValueError("gamma must be positive")
            # The optimized variant's rows hold the step map's with its
            # rollout's composed in (OptimizedRows), at the same slices.
            mapped = step_map if rollout is None else step_map.optimized(rollout[0])
            refs = (grad_prev.ref_x, grad_prev.ref_u) if ref is None else (ref,)
            out = mapped.rows_at(x_meas, candidate, *refs)
            base_vals, pred = out[mapped.base], out[mapped.pred]
            projector, viol = manifold.projector, out[mapped.viol]
            if not projector.keeps(out[mapped.grad], viol):
                face = _face_rows(mapped, projector, out, viol, (x_meas, candidate, *refs))
                if face is None:
                    sol = projector._rejected(out[mapped.linear], out[mapped.eta], viol,
                                              manifold.sbar.offsets)
                    theta_hat, eta_hat = _projected(manifold, sol)
                out = face
            if out is not None:
                theta_hat, eta_hat = out[mapped.theta], out[mapped.eta]
        worst = float(np.maximum.reduce(base_vals))

        kkt, fallback, g, growth, plan, u = None, False, None, None, None, None
        c_g = None if rollout is None else options.effective_c_g(model)
        if out is not None:
            gap = out[mapped.gap]
            gap_norm = math.sqrt(gap @ gap)
            if rollout is not None:
                decided = mapped.additional_input(out, x_meas, candidate, rollout[1], gap_norm,
                                                  c_g)
                if decided is not None:
                    g, growth, kkt = decided
            if ((rollout is None or g is not None)
                    and _rows_settle(gap_norm, worst, float(np.maximum.reduce(out[mapped.reach])),
                                     model.membership_tol)):
                g, plan, u = out[mapped.g], out[mapped.plan], out[mapped.u]
                beta = 1.0
        if g is None:
            if rollout is None:
                g, growth = additional_input_explicit(tables, theta_hat, pred)
            else:
                d = theta_hat - pred if out is None else gap
                g, kkt, fallback = additional_input_optimized(
                    model, rollout, x_meas, candidate, theta_hat, d, c_g)

        if plan is None:
            beta = max_beta(tables, model, x_meas, candidate, g, _base=(base_vals, worst),
                            _growth=growth)
            if beta == 1.0:  # most steps; skips the blend's five operations
                plan = np.concatenate([candidate + g, eta_hat])
            else:
                plan = np.concatenate([candidate + beta * g,
                                       (1.0 - beta) * rows.u_ss[i - 1] + beta * eta_hat])
            u = plan[:m] + model.k @ x_meas  # the first planned input plus feedback
        rows.plan[i], rows.u[i] = plan, u
        rows.theta_hat[i], rows.eta_hat[i], rows.pred_state[i] = theta_hat, eta_hat, pred
        rows.beta[i], rows.g_norm[i] = beta, math.sqrt(g @ g)
        rows.kkt_residual[i] = np.nan if kkt is None else kkt
        rows.candidate_ok[i], rows.g_fallback[i] = worst <= model.membership_tol, fallback
    except StepError:
        raise
    except Exception as exc:
        raise StepError(int(rows.t[i]), exc) from exc
