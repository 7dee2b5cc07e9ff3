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
from .plant import QuadraticCost, membership_zu, stage_values, stage_values_linear

DEGENERATE_TOL = 1e-12
PROJECTION_TOL = 1e-9
_ONE = np.ones(1)


@dataclass
class ControllerConfig:
    gamma: float
    c_g: float | None = None
    rollout_builder: object = None  # build(x_meas, candidate, theta_hat) -> RolloutQp

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


@dataclass
class RolloutQp:
    """One step's rollout QP over the additional input sequence g.

    ``solver`` is the builder's ``PrefactoredQp``: its first mu*m variables
    are g, any further ones (e.g. a slack) follow, and its equality rows are
    S_c padded with zero columns. ``linear`` is the step's linear term at the
    solver's size and ``ineq_offsets`` the right-hand sides of its
    inequality rows, if it has any.
    """

    solver: PrefactoredQp
    linear: np.ndarray
    ineq_offsets: np.ndarray = None


class QuadraticRolloutBuilder:
    """Rollout objective with fixed stage weights and the controller's own
    steady-state estimate as target; the generic choice for the optimized
    additional-input variant. The weights fix the Hessian, so the solver is
    built here once and each step forms only the linear term.

    The rollout of g + candidate from x has the states c_x + E g, with c_x =
    P0 x + E candidate, and the inputs c_v + (I + K_b E) g, with c_v =
    candidate + K_b c_x (K_b = I (x) K); the stage cost is weighted against
    theta_hat at every stage. So the linear term is affine in (x, candidate,
    theta_hat), and its three maps ``lin_x``, ``lin_c`` and ``lin_theta`` are
    fixed.
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
        self.solver = PrefactoredQp(self.hessian, eq_normals=model.s_c)
        qxe, qum = qx_bar @ e, qu_bar @ mmap
        self.lin_x = qxe.T @ p0 + qum.T @ kb @ p0
        self.lin_c = qxe.T @ e + qum.T @ mmap
        self.lin_theta = qxe.T @ np.tile(np.eye(model.n), (mu, 1))

    def build(self, x_meas, candidate, theta_hat):
        lin = self.lin_x @ x_meas + self.lin_c @ candidate - self.lin_theta @ theta_hat
        return RolloutQp(self.solver, lin)


class QuadraticStepMap:
    """A step's affine part on ``tables`` and ``manifold``, for
    ``QuadraticCost``'s own gradient with fixed weights (q_x, q_u) and step
    size ``gamma``; ``step`` refuses the map for other ones.

    With the quadratic gradient (Q_x (pred - ref_x), Q_u (v - ref_u)), the
    projection's linear term q0 + 2 gamma M [gx; gv] (``ogd_step``) is affine
    in z = (x_meas, candidate, ref_x, ref_u), as are the candidate's stage
    residuals and pred (the rows of ``TighteningTables.rollout_x`` and
    ``rollout_u``). So is the rest of the step wherever the projector keeps
    its unconstrained guess and beta = 1: the guess eta = -H_p^-1 linear
    (``manifold.projector.kkt_q``) and theta = G_K eta, the reach gap d =
    theta - pred, the least-norm input g = S_c^+ d and the stage residuals
    base + R_u g of the blended plan (``explicit_map``), the plan [candidate
    + g; eta] and the input plan[:m] + K x_meas. One product of ``matrix``
    with [z; 1] gives them all; the slices ``base``, ``linear``, ``pred``,
    ``theta``, ``gap``, ``g``, ``reach``, ``eta``, ``plan`` and ``u`` pick
    them from it. ``step`` keeps a row only where its condition holds, and
    takes the module functions everywhere else.
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
        pred_rows = np.hstack([rx[pred], ru[pred], np.zeros((n, n + m + 1))])
        eta = manifold.projector.kkt_q @ linear
        theta = manifold.g_k @ eta
        gap = theta - pred_rows
        both = tables.explicit_map @ gap  # [g; growth]
        g = both[:nv]
        head = g + np.hstack([np.zeros((nv, n)), np.eye(nv), np.zeros((nv, n + m + 1))])
        u = head[:m] + np.hstack([tables.feedback, np.zeros((m, nv + n + m + 1))])
        blocks = dict(base=base, linear=linear, pred=pred_rows, theta=theta, gap=gap, g=g,
                      reach=base + both[nv:], head=head, eta=eta, u=u)
        at = 0
        for name, block in blocks.items():
            setattr(self, name, slice(at, at + len(block)))
            at += len(block)
        self.plan = slice(self.head.start, self.eta.stop)  # [candidate + g; eta]
        self.matrix = np.vstack(list(blocks.values()))
        self.tables, self.manifold, self.gamma = tables, manifold, gamma
        self.q_x, self.q_u = cost.q_x, cost.q_u

    @staticmethod
    def takes(cost):
        """True when ``cost``'s gradient is ``QuadraticCost.grad`` itself; a
        subclass that overrides it, and any other oracle, keep the gradient
        path."""
        return getattr(type(cost), "grad", None) is QuadraticCost.grad

    def serves(self, cost):
        """True when ``cost`` takes a map and has this map's weight arrays."""
        return self.takes(cost) and cost.q_x is self.q_x and cost.q_u is self.q_u

    def product(self, x_meas, candidate, cost):
        """The map's rows at (x_meas, candidate) for a cost this map serves."""
        return self.matrix @ np.concatenate((x_meas, candidate, cost.ref_x, cost.ref_u, _ONE))


def control_input(state, model, x_meas):
    """First planned input plus state feedback."""
    return state.plan[:model.m] + model.k @ x_meas


def initialize(model, tables, manifold, zeta0, x0_meas, tol=None):
    """Build the t=0 plan from a steady-state guess.

    The plan holds eta0 for mu steps plus a least-norm correction pulling the
    mu-step prediction onto theta0. Raises InitializationError when the guess
    is outside the shrunk manifold or the plan misses the tightened sets.
    """
    theta0, eta0 = zeta0
    theta0 = as_vector(theta0, "theta0")
    eta0 = as_vector(eta0, "eta0")
    x0_meas = as_vector(x0_meas, "x0_meas")
    if tol is None:
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


def project_manifold(manifold, linear, tol=PROJECTION_TOL):
    """Euclidean projection onto the shrunk manifold of the (x, u) point whose
    projection QP has the linear term ``linear`` = -2 (G_K' x + u).

    Solved in u-coordinates with x = G_K u substituted, which is exact.
    """
    sol = manifold.projector.solve(linear, ineq_offsets=manifold.sbar.offsets, tol=tol)
    if sol.status != "optimal":
        raise InfeasibleError(f"manifold projection failed: {sol.status}")
    return manifold.zeta_of_u(sol.x)


def additional_input_explicit(tables, theta_hat, pred_state):
    """Least-norm input sequence g reaching theta_hat in mu steps, and its
    growth of the stage residuals (``residual_u @ g``): one product with
    ``tables.explicit_map``. Returns (g, growth)."""
    r, nv = tables.residual_u.shape
    d = _reach_gap(theta_hat, pred_state)
    if d is None:
        return np.zeros(nv), np.zeros(r)
    both = tables.explicit_map @ d
    return both[:nv], both[nv:]


def _reach_gap(theta_hat, pred_state):
    """theta_hat - pred_state, or None below DEGENERATE_TOL; rejects NaN/inf."""
    d = theta_hat - pred_state
    norm = math.sqrt(d @ d)
    if norm <= DEGENERATE_TOL:
        return None
    if not norm < np.inf:
        raise ValueError("theta_hat or pred_state has non-finite entries")
    return d


def additional_input_optimized(model, theta_hat, pred_state, rollout_qp, c_g):
    """Cost-shaped solution of the reachability constraint.

    Minimizes the supplied rollout objective subject to S_c g = theta - pred
    with the rollout's own solver. Falls back to the explicit solution S_c^+ d when
    the solver fails or the norm cap is violated, reporting the fallback;
    any other error (e.g. a malformed ``rollout_qp``) propagates.
    """
    d = _reach_gap(theta_hat, pred_state)
    nv = model.mu * model.m
    if d is None:
        return np.zeros(nv), None, False
    try:
        sol = rollout_qp.solver.solve(rollout_qp.linear,
                                      ineq_offsets=rollout_qp.ineq_offsets, eq_offsets=d)
    except (OcoRobustError, np.linalg.LinAlgError):
        return model.s_c_pinv @ d, None, True
    g = sol.x[:nv]
    if sol.status != "optimal" or math.sqrt(g @ g) > c_g * math.sqrt(d @ d) * (1 + 1e-9):
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


def _rows_settle(out, step_map, worst, tol):
    """True when the step map's rows ``out`` (its guess kept) are the
    explicit step at beta = 1: the reach gap is finite and above
    DEGENERATE_TOL (``_reach_gap``), the candidate's worst stage residual
    ``worst`` is within ``tol`` (else ``max_beta`` raises) and no stage
    residual of the plan at beta = 1 is above 0 (``max_beta``'s first exit).
    """
    d = out[step_map.gap]
    return (DEGENERATE_TOL < math.sqrt(d @ d) < np.inf and worst <= tol
            and float(np.maximum.reduce(out[step_map.reach])) <= 0.0)


def step(state, model, tables, manifold, x_meas, grad_prev, options, step_map=None):
    """Advance the controller one step; returns (u, new_state, diagnostics).

    ``step_map`` is a ``QuadraticStepMap`` built from ``tables`` and
    ``manifold`` for ``options.gamma`` that serves ``grad_prev`` (any other
    map fails the step); without one the step calls the gradient oracle.
    With a map, the projection keeps the map's guess when the projector's
    ``guess_row`` keeps it, and the explicit variant then takes g, beta = 1,
    the plan and u from the map's rows where they settle the step
    (``_rows_settle``); every other case takes ``project_manifold``, the
    additional input, ``max_beta`` and the blend.
    """
    t = state.t + 1
    try:
        x_meas = as_vector(x_meas, "x_meas")
        m = model.m
        candidate = state.plan[m:]  # the plan shifted by one step, u_ss held
        out = None  # the map's rows, while the step keeps its guess
        if step_map is None:
            # One stacked product (see TighteningTables): the candidate's
            # stage residuals, the gradient point v, the projection's base
            # linear term q0 and the candidate's mu-step-ahead state pred.
            rows = tables.rollout_x @ x_meas + tables.rollout_u @ candidate
            r = tables.residual_offsets.size
            base_vals = rows[:r] - tables.residual_offsets
            pred = rows[r + 2 * m:]
            theta_hat, eta_hat = ogd_step(tables, manifold, grad_prev, options.gamma, pred,
                                          rows[r:r + m], rows[r + m:r + 2 * m])
        else:
            if options.gamma <= 0:
                raise ValueError("gamma must be positive")
            if not (step_map.tables is tables and step_map.manifold is manifold
                    and step_map.gamma == options.gamma and step_map.serves(grad_prev)):
                raise ValueError("step map built for other tables, manifold, gamma or weights")
            out = step_map.product(x_meas, candidate, grad_prev)
            base_vals, pred = out[step_map.base], out[step_map.pred]
            linear, eta_hat = out[step_map.linear], out[step_map.eta]
            guess = manifold.projector.guess_row(linear, eta_hat, manifold.sbar.offsets,
                                                 PROJECTION_TOL)
            if guess is not None and guess.status == "optimal":
                theta_hat = out[step_map.theta]
            else:
                out = None
                theta_hat, eta_hat = project_manifold(manifold, linear)
        worst = float(np.maximum.reduce(base_vals))

        kkt, fallback, growth, plan, u = None, False, None, None, None
        if options.rollout_builder is not None:
            rollout = options.rollout_builder.build(x_meas, candidate, theta_hat)
            g, kkt, fallback = additional_input_optimized(
                model, theta_hat, pred, rollout, options.effective_c_g(model))
        elif out is not None and _rows_settle(out, step_map, worst, model.membership_tol):
            g, plan, u, beta = out[step_map.g], out[step_map.plan], out[step_map.u], 1.0
        else:
            g, growth = additional_input_explicit(tables, theta_hat, pred)

        if plan is None:
            beta = max_beta(tables, model, x_meas, candidate, g, _base=(base_vals, worst),
                            _growth=growth)
            if beta == 1.0:  # most steps; skips the blend's five operations
                plan = np.concatenate([candidate + g, eta_hat])
            else:
                plan = np.concatenate([candidate + beta * g,
                                       (1.0 - beta) * state.plan[-m:] + beta * eta_hat])
        new_state = ControllerState(plan=plan, zeta_hat=(theta_hat, eta_hat), t=t)
        if u is None:
            u = control_input(new_state, model, x_meas)
        diag = StepDiagnostics(
            beta=float(beta),
            g_norm=math.sqrt(g @ g),
            pred_state=pred,
            ogd_target=(theta_hat, eta_hat),
            candidate_feasible=worst <= model.membership_tol,
            kkt_residual=kkt,
            g_fallback=bool(fallback),
        )
        return u, new_state, diag
    except StepError:
        raise
    except Exception as exc:
        raise StepError(t, exc) from exc
