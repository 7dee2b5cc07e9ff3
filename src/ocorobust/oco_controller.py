"""Per-step online controller.

Each step runs the same pipeline on the measured state: predict mu steps
ahead under the shifted input plan, take one projected gradient step on the
previous cost to re-estimate the optimal steady state, compute an additional
input sequence that would reach the estimate, scale it back until the
tightened constraints hold, and emit the first input plus state feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denseqp import PrefactoredQp
from .errors import InfeasibleError, InitializationError, OcoRobustError, StepError
from .matlin import as_vector
from .plant import membership_zu, stage_values, stage_values_linear

DEGENERATE_TOL = 1e-12


@dataclass
class ControllerConfig:
    gamma: float
    variant: str = "explicit"  # "explicit" | "optimized"
    c_g: float | None = None
    qp_tol: float = 1e-8
    rollout_builder: object = None  # builds RolloutQp per step for "optimized"

    def effective_c_g(self, model):
        return self.c_g if self.c_g is not None else 1.01 * model.c_g_min


@dataclass
class ControllerState:
    u_pred: np.ndarray  # predicted mu-step input sequence
    u_ss: np.ndarray    # steady-state input the plan converges to
    zeta_hat: tuple     # (theta_hat, eta_hat) steady-state estimate
    t: int


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
class StepContext:
    """What a rollout cost builder gets to see at one step."""

    t: int
    x_meas: np.ndarray
    theta_hat: np.ndarray
    eta_hat: np.ndarray
    candidate: np.ndarray
    pred_state: np.ndarray


@dataclass
class RolloutQp:
    """Quadratic objective over the additional input sequence g.

    Optional soft rows encode ``rows @ g + offsets + eps >= 0`` with penalty
    ``weight * eps^2`` on the slack.
    """

    hessian: np.ndarray
    linear: np.ndarray
    slack_rows: np.ndarray = None
    slack_offsets: np.ndarray = None
    slack_weight: float = 0.0


class QuadraticRolloutBuilder:
    """Rollout objective with fixed stage weights and the controller's own
    steady-state estimate as target; the generic choice for the optimized
    additional-input variant."""

    def __init__(self, model, q_x, q_u):
        self.model = model
        mu = model.mu
        self.e = model._pu
        self.p0 = model._px
        self.kb = np.kron(np.eye(mu), model.k)
        self.mmap = np.eye(mu * model.m) + self.kb @ self.e
        qx_bar = np.kron(np.eye(mu), np.asarray(q_x, float))
        qu_bar = np.kron(np.eye(mu), np.asarray(q_u, float))
        h = self.e.T @ qx_bar @ self.e + self.mmap.T @ qu_bar @ self.mmap
        self.hessian = 0.5 * (h + h.T)
        self.qxe = qx_bar @ self.e
        self.qum = qu_bar @ self.mmap

    def build(self, ctx):
        c_x = self.p0 @ ctx.x_meas + self.e @ ctx.candidate
        c_v = ctx.candidate + self.kb @ c_x
        refs = np.tile(ctx.theta_hat, self.model.mu)
        lin = self.qxe.T @ (c_x - refs) + self.qum.T @ c_v
        return RolloutQp(hessian=self.hessian, linear=lin)


def control_input(state, model, x_meas):
    """First planned input plus state feedback."""
    return state.u_pred[: model.m] + model.k @ x_meas


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
    return ControllerState(u_pred=u_pred, u_ss=eta0.copy(), zeta_hat=(theta0, eta0), t=0)


def predict(state, model, x_meas):
    """mu-step ahead prediction under the shifted input plan."""
    if state.t < 1:
        raise ValueError("predict is defined from t >= 1")
    candidate = _shift_candidate(state, model)
    return model.predict_terminal(as_vector(x_meas), candidate)


def _shift_candidate(state, model):
    return np.concatenate([state.u_pred[model.m:], state.u_ss])


def ogd_step(state, model, manifold, grad_prev, gamma, pred_state):
    """One projected gradient step on the previous cost.

    The gradient oracle is outside code, so its output is checked here.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    u_ss = state.u_ss
    gx, gv = grad_prev.grad(pred_state, u_ss + model.k @ pred_state)
    if not (np.isfinite(gx).all() and np.isfinite(gv).all()):
        raise ValueError("gradient oracle returned non-finite values")
    step_x = pred_state - gamma * (gx + model.k.T @ gv)
    step_u = u_ss - gamma * gv
    return project_manifold(manifold, step_x, step_u)


def project_manifold(manifold, point_x, point_u, tol=1e-9):
    """Euclidean projection of an (x, u) point onto the shrunk manifold.

    Solved in u-coordinates with x = G_K u substituted, which is exact.
    """
    q = -2.0 * (manifold.g_k.T @ point_x + point_u)
    sol = manifold.projector.solve(q, ineq_offsets=manifold.sbar.offsets, tol=tol)
    if sol.status != "optimal":
        raise InfeasibleError(f"manifold projection failed: {sol.status}")
    return manifold.zeta_of_u(sol.x)


def additional_input_explicit(model, theta_hat, pred_state):
    """Least-norm input sequence reaching theta_hat in mu steps."""
    d = _reach_gap(theta_hat, pred_state)
    if d is None:
        return np.zeros(model.mu * model.m)
    return model.s_c_pinv @ d


def _reach_gap(theta_hat, pred_state):
    """theta_hat - pred_state, or None below DEGENERATE_TOL; rejects NaN/inf."""
    d = theta_hat - pred_state
    norm = np.linalg.norm(d)
    if norm <= DEGENERATE_TOL:
        return None
    if not norm < np.inf:
        raise ValueError("theta_hat or pred_state has non-finite entries")
    return d


def additional_input_optimized(model, theta_hat, pred_state, rollout_qp, c_g,
                               qp_tol=1e-8):
    """Cost-shaped solution of the reachability constraint.

    Minimizes the supplied rollout objective subject to S_c g = theta - pred;
    soft rows add one slack variable. Falls back to the explicit solution
    when the solver fails or the norm cap is violated, reporting the
    fallback; any other error (e.g. a malformed ``rollout_qp``) propagates.
    """
    d = _reach_gap(theta_hat, pred_state)
    nv = model.mu * model.m
    if d is None:
        return np.zeros(nv), None, False
    has_slack = rollout_qp.slack_rows is not None and len(rollout_qp.slack_rows) > 0
    try:
        pre = _rollout_solver(model, rollout_qp, nv, has_slack)
        if has_slack:
            q = np.concatenate([rollout_qp.linear, [0.0]])
            sol = pre.solve(q, ineq_offsets=np.asarray(rollout_qp.slack_offsets, float),
                            eq_offsets=d, tol=qp_tol)
        else:
            sol = pre.solve(rollout_qp.linear, eq_offsets=d, tol=qp_tol)
    except (OcoRobustError, np.linalg.LinAlgError):
        return additional_input_explicit(model, theta_hat, pred_state), None, True
    g = sol.x[:nv]
    if sol.status != "optimal" or np.linalg.norm(g) > c_g * np.linalg.norm(d) * (1 + 1e-9):
        return additional_input_explicit(model, theta_hat, pred_state), sol.kkt_residual, True
    return g, sol.kkt_residual, False


def _rollout_solver(model, rollout_qp, nv, has_slack):
    # Hessian and constraint normals are constant across steps for a given
    # builder phase; factor them once per (hessian, slack rows) pair.
    cache = getattr(model, "_rollout_solvers", None)
    if cache is None:
        cache = model._rollout_solvers = {}
    key = (id(rollout_qp.hessian), id(rollout_qp.slack_rows), rollout_qp.slack_weight)
    entry = cache.get(key)
    if entry is not None and entry[0] is rollout_qp.hessian and entry[1] is rollout_qp.slack_rows:
        return entry[2]
    if has_slack:
        h = np.zeros((nv + 1, nv + 1))
        h[:nv, :nv] = rollout_qp.hessian
        h[nv, nv] = 2.0 * rollout_qp.slack_weight
        ineq_n = np.hstack([-rollout_qp.slack_rows,
                            -np.ones((len(rollout_qp.slack_rows), 1))])
        eq_n = np.hstack([model.s_c, np.zeros((model.n, 1))])
        pre = PrefactoredQp(h, ineq_normals=ineq_n, eq_normals=eq_n)
    else:
        pre = PrefactoredQp(rollout_qp.hessian, eq_normals=model.s_c)
    if len(cache) > 32:
        cache.clear()
    cache[key] = (rollout_qp.hessian, rollout_qp.slack_rows, pre)
    return pre


def max_beta(tables, model, x_meas, base_seq, g, tol=None, _base=None):
    """Largest beta in [0, 1] keeping base + beta*g inside the tightened sets.

    Every stage constraint is affine in beta, so the maximum is an exact
    per-facet ratio test. Raises when the base sequence itself is infeasible,
    which would mean the recursive feasibility invariant broke.
    """
    if tol is None:
        tol = model.membership_tol
    if _base is None:
        _base = stage_values(tables, model, x_meas, base_seq)
    base_vals = _base.flat
    worst = float(base_vals.max(initial=-np.inf))
    if not worst <= tol:  # NaN-safe: a non-finite x_meas or base_seq fails here
        raise InfeasibleError(
            f"candidate input sequence infeasible by {worst:.3e}; feasibility invariant broken")
    if not np.any(g):
        return 1.0
    growth = stage_values_linear(tables, model, g).flat
    slack = np.maximum(-base_vals, 0.0)
    peak = float(np.abs(growth).max())
    if not peak < np.inf:
        raise ValueError("g has non-finite entries")
    scale = max(1.0, peak)
    mask = growth > 1e-14 * scale
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(slack[mask] / growth[mask])))


def max_beta_bisect(tables, model, x_meas, base_seq, g, tol=None, resolution=1e-10):
    """Bisection solution of the beta problem, kept as a cross-check."""
    if tol is None:
        tol = model.membership_tol
    base_seq = as_vector(base_seq, "base_seq")
    g = as_vector(g, "g")

    def feasible(beta):
        _, worst = membership_zu(tables, model, x_meas, base_seq + beta * g, tol=0.0)
        return worst <= 0.0

    _, worst0 = membership_zu(tables, model, x_meas, base_seq, tol=0.0)
    if worst0 > tol:
        raise InfeasibleError("candidate input sequence infeasible")
    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def step(state, model, tables, manifold, x_meas, grad_prev, options):
    """Advance the controller one step; returns (u, new_state, diagnostics)."""
    t = state.t + 1
    try:
        x_meas = as_vector(x_meas, "x_meas")
        candidate = _shift_candidate(state, model)
        base_vals = stage_values(tables, model, x_meas, candidate)
        cand_ok = float(base_vals.flat.max()) <= model.membership_tol
        pred = model.predict_terminal(x_meas, candidate)

        theta_hat, eta_hat = ogd_step(state, model, manifold, grad_prev,
                                      options.gamma, pred)

        c_g = options.effective_c_g(model)
        kkt = None
        fallback = False
        if options.variant == "optimized" and options.rollout_builder is not None:
            ctx = StepContext(t=t, x_meas=x_meas, theta_hat=theta_hat,
                              eta_hat=eta_hat, candidate=candidate, pred_state=pred)
            rollout = options.rollout_builder.build(ctx)
            g, kkt, fallback = additional_input_optimized(
                model, theta_hat, pred, rollout, c_g, qp_tol=options.qp_tol)
        else:
            g = additional_input_explicit(model, theta_hat, pred)

        beta = max_beta(tables, model, x_meas, candidate, g, _base=base_vals)
        u_pred = candidate + beta * g
        u_ss = (1.0 - beta) * state.u_ss + beta * eta_hat
        new_state = ControllerState(u_pred=u_pred, u_ss=u_ss,
                                    zeta_hat=(theta_hat, eta_hat), t=t)
        u = control_input(new_state, model, x_meas)
        diag = StepDiagnostics(
            beta=float(beta),
            g_norm=float(np.linalg.norm(g)),
            pred_state=pred,
            ogd_target=(theta_hat, eta_hat),
            candidate_feasible=bool(cand_ok),
            kkt_residual=kkt,
            g_fallback=bool(fallback),
        )
        return u, new_state, diag
    except StepError:
        raise
    except Exception as exc:
        raise StepError(t, exc) from exc
