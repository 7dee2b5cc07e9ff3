"""Problem assembly and validation.

Builds the full data a controller run needs from raw matrices and sets:
closed-loop dynamics, the reordered controllability matrix, the combined
disturbance set seen by the measured state, the RPI outer approximation and
its tail, stage-wise tightened constraint tables, and the shrunk manifold of
robustly feasible steady states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import invariance
from .convexsets import (
    HPolytope,
    TightenedOffsets,
    Zonotope,
    direction_net,
    pontryagin_deduct,
    zonotope_in_polytope,
)
from .denseqp import PrefactoredQp, polytope_is_empty
from .errors import AssumptionViolation, DimensionMismatch, InfeasibleError
from .matlin import (
    as_matrix,
    as_vector,
    numeric_rank,
    power_norm_certificate,
    spectral_norm_upper,
    symmetric_eig_bounds,
)


@dataclass
class ModelConfig:
    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    mu: int
    x_set: HPolytope
    u_set: HPolytope
    w_set: Zonotope
    v_set: Zonotope
    rpi_epsilon: float | None = None
    rpi_s_max: int = 200
    schur_n_max: int = 200
    membership_tol: float = 1e-9


class PlantModel:
    """Validated problem instance with precomputed rollout operators."""

    def __init__(self, cfg, a, b, k, a_k, g_k, s_c, s_c_pinv, mu, mu_star,
                 w_bar, p_rpi, p_tail, decay):
        self.a, self.b, self.k = a, b, k
        self.a_k, self.g_k = a_k, g_k
        self.s_c, self.s_c_pinv = s_c, s_c_pinv
        self.mu, self.mu_star = mu, mu_star
        self.n, self.m = a.shape[0], b.shape[1]
        self.x_set, self.u_set = cfg.x_set, cfg.u_set
        self.w_set, self.v_set = cfg.w_set, cfg.v_set
        self.w_bar = w_bar
        self.p_rpi, self.p_tail = p_rpi, p_tail
        self.decay = decay
        self.membership_tol = cfg.membership_tol
        self.k_bar = np.block([
            [np.eye(self.n), np.zeros((self.n, self.m))],
            [k, np.eye(self.m)],
        ])
        self.c_g_min = spectral_norm_upper(s_c_pinv)
        self._build_rollout_maps()
        self._tube = ZonotopeMembership(p_tail)
        self.tube_band = spectral_norm_upper(
            np.linalg.matrix_power(a_k, mu)) * p_rpi.epsilon_bound

    def _build_rollout_maps(self):
        n, m, mu = self.n, self.m, self.mu
        powers = [np.eye(n)]
        for _ in range(mu):
            powers.append(powers[-1] @ self.a_k)
        blocks = [p @ self.b for p in powers]
        sx = np.vstack([powers[t + 1] for t in range(mu)])
        px = np.vstack([powers[t] for t in range(mu)])
        su = np.zeros((mu * n, mu * m))
        pu = np.zeros((mu * n, mu * m))
        for t in range(mu):
            for c in range(t + 1):
                su[t * n:(t + 1) * n, c * m:(c + 1) * m] = blocks[t - c]
            for c in range(t):
                pu[t * n:(t + 1) * n, c * m:(c + 1) * m] = blocks[t - 1 - c]
        self._sx, self._su, self._px, self._pu = sx, su, px, pu
        self.a_k_powers = powers

    def tube_margin(self, dev):
        """Signed Euclidean margin of ``dev`` against the tail set (<=0 inside)."""
        return self._tube.margin(dev)

    def tube_margins(self, devs):
        """``tube_margin`` of each row of the (k, n) array ``devs``."""
        return self._tube.margins(devs)

    def predict_terminal(self, x, useq):
        """mu-step ahead state A_K^mu x + S_c useq."""
        return self.a_k_powers[self.mu] @ x + self.s_c @ useq


# Rows per matrix product in the batched checks, so their temporaries stay
# (ROW_BLOCK, facets) however many rows (steps) there are.
ROW_BLOCK = 64


class ZonotopeMembership:
    """Point-membership margins for a fixed zonotope (dim <= 3).

    The facet form is built after merging parallel generators, which gives
    the same set with fewer facets.
    """

    def __init__(self, z):
        self.center = z.center
        scale = max(1.0, np.abs(z.generators).max(initial=0.0))
        g = z.prune(1e-14 * scale).generators
        rank = np.linalg.matrix_rank(g, tol=1e-12 * scale) if g.size else 0
        if rank == 0:
            self.kind = "point"
        elif rank == 1:
            self.kind = "segment"
            u = g[:, int(np.argmax(np.linalg.norm(g, axis=0)))]
            self.axis = u / np.linalg.norm(u)
            self.extent = float(np.abs(self.axis @ g).sum())
        else:
            self.kind = "facets"
            self.normals, self.offsets = z.merge_parallel().to_halfspaces()

    def margin(self, x):
        return float(self.margins(np.reshape(x, (1, -1)))[0])

    def margins(self, points):
        """Signed margin of each row of ``points`` (<= 0 inside, NaN for NaN)."""
        d = np.asarray(points, dtype=float) - self.center
        if self.kind == "point":
            return np.linalg.norm(d, axis=1)
        if self.kind == "segment":
            along = d @ self.axis
            perp = np.linalg.norm(d - np.outer(along, self.axis), axis=1)
            return np.maximum(perp, np.abs(along) - self.extent)
        out = np.empty(len(d))
        for lo in range(0, len(d), ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            out[rows] = (d[rows] @ self.normals.T - self.offsets).max(axis=1)
        return out


def build_w_bar(a, w_set, v_set):
    """Combined disturbance of the measured-state dynamics: V (+) -AV (+) W."""
    a = as_matrix(a, "a")
    v_bar = v_set.minkowski_sum(v_set.linear_image(-a))
    return v_bar.minkowski_sum(w_set).prune()


def _zonotope_full_interior(z, tol=1e-12):
    dirs = direction_net(z.dim)
    return bool(np.all(z.support_batch(dirs) - dirs @ z.center > tol)) and z.contains_origin(
        tol=max(tol, 1e-9)
    )


def build_model(cfg):
    """Assemble and validate a PlantModel; raises AssumptionViolation with the
    name of the first failed check."""
    a = as_matrix(cfg.a, "a")
    b = as_matrix(cfg.b, "b")
    k = as_matrix(cfg.k, "k")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch("a must be square")
    m = b.shape[1]
    if b.shape[0] != n or k.shape != (m, n):
        raise DimensionMismatch("b or k shape inconsistent with a")
    for s, nm in ((cfg.x_set, "x_set"), (cfg.w_set, "w_set"), (cfg.v_set, "v_set")):
        if s.dim != n:
            raise DimensionMismatch(f"{nm} dim {s.dim} != n={n}")
    if cfg.u_set.dim != m:
        raise DimensionMismatch(f"u_set dim {cfg.u_set.dim} != m={m}")

    if not (_zonotope_full_interior(cfg.w_set) and _zonotope_full_interior(cfg.v_set)):
        raise AssumptionViolation(
            "disturbance sets", "W and V must be full-dimensional and contain 0 in the interior")
    ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
    if numeric_rank(ctrb) != n:
        raise AssumptionViolation("controllability", "(A, B) is not controllable")
    for s, nm in ((cfg.x_set, "X"), (cfg.u_set, "U")):
        if not s.is_compact():
            raise AssumptionViolation("constraint sets", f"{nm} is not compact")
        if not s.contains_origin_interior():
            raise AssumptionViolation(
                "constraint sets", f"{nm} must contain 0 in its interior")

    a_k = a + b @ k
    decay = power_norm_certificate(a_k, n_max=cfg.schur_n_max)
    if decay is None:
        raise AssumptionViolation(
            "stabilizing feedback", "A + BK not certified Schur within n_max powers")

    mu_star = None
    for cand in range(1, n + 1):
        if numeric_rank(_controllability(a_k, b, cand)) == n:
            mu_star = cand
            break
    if mu_star is None:
        raise AssumptionViolation("controllability", "stabilized pair lost controllability")
    if cfg.mu < mu_star:
        raise AssumptionViolation("horizon", f"mu={cfg.mu} below controllability index {mu_star}")

    s_c = _controllability(a_k, b, cfg.mu)
    if numeric_rank(s_c) != n:
        raise AssumptionViolation("horizon", "S_c is rank deficient at the chosen horizon")

    w_bar = build_w_bar(a, cfg.w_set, cfg.v_set)
    p_rpi = invariance.mrpi_outer(a_k, w_bar, epsilon=cfg.rpi_epsilon, s_max=cfg.rpi_s_max)
    if not zonotope_in_polytope(p_rpi.p, cfg.x_set, tol=cfg.membership_tol):
        raise AssumptionViolation("rpi containment", "RPI set P is not contained in X")
    p_tail = invariance.tail_set(a_k, w_bar, cfg.mu, p_rpi)

    g_k = scipy.linalg.solve(np.eye(n) - a_k, b)
    gram = s_c @ s_c.T
    s_c_pinv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), s_c).T

    return PlantModel(cfg, a, b, k, a_k, g_k, s_c, s_c_pinv, cfg.mu, mu_star,
                      w_bar, p_rpi, p_tail, decay)


def _controllability(a_k, b, mu):
    # Reordered: [A_K^{mu-1} B, ..., A_K B, B] so the first input block acts first.
    blocks = [b]
    for _ in range(mu - 1):
        blocks.append(a_k @ blocks[-1])
    return np.hstack(blocks[::-1])


@dataclass
class TighteningTables:
    """Stage constraint sets of the tightened mu-step rollout.

    The residuals of all stage constraints are affine in the measured state x
    and the input sequence useq: ``residual_x @ x + residual_u @ useq -
    residual_offsets``, stacked as the mu state stages (fx rows each) and then
    the mu input stages (fu rows each).
    """

    state_stage: list
    input_stage: list
    residual_x: np.ndarray = field(repr=False)        # (mu*(fx+fu), n)
    residual_u: np.ndarray = field(repr=False)        # (mu*(fx+fu), mu*m)
    state_offsets: np.ndarray = field(repr=False)     # (mu, fx) tightened
    input_offsets: np.ndarray = field(repr=False)     # (mu, fu) tightened
    residual_offsets: np.ndarray = field(repr=False)  # both, flattened


class StageValues(tuple):
    """``(state, input)`` stage residuals of shapes (mu, fx) and (mu, fu).

    Both are views of ``flat``, the stacked residual vector.
    """

    def __new__(cls, flat, tables):
        mu, fx = tables.state_offsets.shape
        values = super().__new__(cls, (flat[:mu * fx].reshape(mu, fx),
                                       flat[mu * fx:].reshape(tables.input_offsets.shape)))
        values.flat = flat
        return values


def build_tightening(model):
    """Per-stage tightened state and input constraint sets.

    Stage tau state constraint: X shrunk by the support of sum_{j<=tau}
    A_K^j W_bar. Stage tau input constraint: U shrunk by K times the sum up
    to tau-1 (the tau = 0 entry is U itself, empty-sum convention).
    """
    mu = model.mu
    state_stage, input_stage = [], []
    acc = None
    for tau in range(mu):
        term = model.w_bar.linear_image(model.a_k_powers[tau])
        if tau == 0:
            input_stage.append(TightenedOffsets(model.u_set, np.zeros(model.u_set.offsets.size)))
        else:
            input_stage.append(pontryagin_deduct(model.u_set, acc.linear_image(model.k)))
        acc = term if acc is None else acc.minkowski_sum(term).prune()
        state_stage.append(pontryagin_deduct(model.x_set, acc))
    for tau, stage in enumerate(state_stage):
        if polytope_is_empty(stage.normals, stage.offsets):
            raise InfeasibleError(f"tightened state constraint set empty at stage tau={tau}")
    for tau, stage in enumerate(input_stage):
        if polytope_is_empty(stage.normals, stage.offsets):
            raise InfeasibleError(f"tightened input constraint set empty at stage tau={tau}")
    # Stage tau checks the state x_{tau+1} and the input u_tau + K x_tau.
    eye = np.eye(mu)
    hx = np.kron(eye, model.x_set.normals)
    hu = np.kron(eye, model.u_set.normals)
    kb = np.kron(eye, model.k)
    state_offsets = np.stack([t.offsets for t in state_stage])
    input_offsets = np.stack([t.offsets for t in input_stage])
    return TighteningTables(
        state_stage=state_stage,
        input_stage=input_stage,
        residual_x=np.vstack([hx @ model._sx, hu @ kb @ model._px]),
        residual_u=np.vstack([hx @ model._su,
                              hu @ (np.eye(mu * model.m) + kb @ model._pu)]),
        state_offsets=state_offsets,
        input_offsets=input_offsets,
        residual_offsets=np.concatenate([state_offsets.ravel(), input_offsets.ravel()]),
    )


def stage_values(tables, model, x, useq):
    """Signed stage constraint residuals (state, input) for a rollout from x."""
    x = np.asarray(x, float).reshape(-1)
    useq = np.asarray(useq, float).reshape(-1)
    return StageValues(tables.residual_x @ x + tables.residual_u @ useq
                       - tables.residual_offsets, tables)


def stage_values_linear(tables, model, useq):
    """Linear part of the stage residuals in the input sequence (x = 0, no offsets)."""
    return StageValues(tables.residual_u @ np.asarray(useq, float).reshape(-1), tables)


def worst_stage_residuals(tables, xs, useqs):
    """The worst stage residual of each rollout from a row of ``xs`` under
    the same row of ``useqs``: ``membership_zu``'s worst value, batched."""
    out = np.empty(len(xs))
    for lo in range(0, len(xs), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        out[rows] = (xs[rows] @ tables.residual_x.T + useqs[rows] @ tables.residual_u.T
                     - tables.residual_offsets).max(axis=1)
    return out


def membership_zu(tables, model, x, useq, tol=None):
    """Check the tightened mu-step constraints; returns (ok, worst residual)."""
    worst = float(stage_values(tables, model, x, useq).flat.max())
    if tol is None:
        tol = model.membership_tol
    return worst <= tol, worst


@dataclass
class SteadyStateManifold:
    """Robustly feasible steady states, parameterized by the input u.

    ``u_polytope`` describes S in u-coordinates; ``sbar`` is the same polytope
    with offsets scaled by ``shrink`` and is the set the controller projects
    onto. ``projector`` is the Euclidean projection QP onto S-bar in
    u-coordinates, with x = G_K u substituted: Hessian 2 (G_K' G_K + I).
    """

    u_polytope: HPolytope
    shrink: float
    sbar: HPolytope
    g_k: np.ndarray
    projector: PrefactoredQp = field(init=False, repr=False)

    def __post_init__(self):
        g = self.g_k
        self.projector = PrefactoredQp(2.0 * (g.T @ g + np.eye(g.shape[1])),
                                       ineq_normals=self.sbar.normals)

    def contains_u(self, u, tol=1e-9):
        return self.sbar.contains(u, tol=tol)

    def contains_zeta(self, theta, eta, tol=1e-9):
        theta = as_vector(theta, "theta")
        eta = as_vector(eta, "eta")
        coupled = np.linalg.norm(theta - self.g_k @ eta) <= max(
            tol, 1e-7 * (1.0 + np.linalg.norm(theta)))
        return coupled and self.contains_u(eta, tol=tol)

    def zeta_of_u(self, u):
        return self.g_k @ u, u


def steady_state_manifold(model, p, shrink=0.99):
    """Build S and its shrunk version from the RPI set ``p``.

    S in u-space: G_K u in X (-) P and (I + K G_K) u in U (-) K P. Facet rows
    whose mapped normal vanishes are dropped when trivially satisfied and
    raise otherwise.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError("shrink must be in (0, 1]")
    rows, offs = [], []
    x_ded = p.p.support_batch(model.x_set.normals)
    _append_mapped(rows, offs, model.x_set.normals @ model.g_k,
                   model.x_set.offsets - x_ded)
    kp = p.p.linear_image(model.k)
    u_map = np.eye(model.m) + model.k @ model.g_k
    u_ded = kp.support_batch(model.u_set.normals)
    _append_mapped(rows, offs, model.u_set.normals @ u_map,
                   model.u_set.offsets - u_ded)
    if not rows:
        raise InfeasibleError("steady-state manifold has no active facets")
    normals = np.vstack(rows)
    offsets = np.asarray(offs)
    row_norms = np.linalg.norm(normals, axis=1)
    if np.any(offsets / row_norms <= 0.0):
        raise InfeasibleError(
            "steady-state manifold does not contain u=0 strictly; constraints too tight")
    u_poly = HPolytope(normals, offsets)
    sbar = HPolytope(normals, shrink * offsets)
    return SteadyStateManifold(u_polytope=u_poly, shrink=shrink, sbar=sbar, g_k=model.g_k)


def _append_mapped(rows, offs, mapped, tightened):
    scale = max(1.0, float(np.abs(mapped).max()))
    for row, off in zip(mapped, tightened):
        if np.linalg.norm(row) <= 1e-12 * scale:
            if off < 0.0:
                raise InfeasibleError(
                    "steady-state manifold empty: a constraint with zero normal is violated")
            continue
        rows.append(row)
        offs.append(float(off))


@dataclass(frozen=True)
class QuadraticCost:
    """L(x, v) = 1/2 (x-ref_x)'Qx(x-ref_x) + 1/2 (v-ref_u)'Qu(v-ref_u).

    ``v`` is the physical input (feedback included). The gradient oracle is
    what the controller consumes; any object with the same ``grad`` shape
    works in its place.
    """

    q_x: np.ndarray
    q_u: np.ndarray
    ref_x: np.ndarray
    ref_u: np.ndarray
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "q_x", as_matrix(self.q_x, "q_x"))
        object.__setattr__(self, "q_u", as_matrix(self.q_u, "q_u"))
        object.__setattr__(self, "ref_x", as_vector(self.ref_x, "ref_x"))
        object.__setattr__(self, "ref_u", as_vector(self.ref_u, "ref_u"))

    def value(self, x, v):
        dx = np.asarray(x, float) - self.ref_x
        dv = np.asarray(v, float) - self.ref_u
        return float(0.5 * dx @ self.q_x @ dx + 0.5 * dv @ self.q_u @ dv)

    def grad(self, x, v):
        dx = np.asarray(x, float) - self.ref_x
        dv = np.asarray(v, float) - self.ref_u
        return self.q_x @ dx, self.q_u @ dv


def closed_loop_hessian(cost, model):
    q = np.block([
        [cost.q_x, np.zeros((model.n, model.m))],
        [np.zeros((model.m, model.n)), cost.q_u],
    ])
    return model.k_bar.T @ q @ model.k_bar


def cost_curvature(cost, model):
    """Strong convexity and gradient Lipschitz constants of the closed-loop cost.

    Certified conservative bounds from the quadratic Hessian (alpha low,
    l high); rejects costs whose closed-loop Hessian is not PD.
    """
    h = closed_loop_hessian(cost, model)
    try:
        scipy.linalg.cho_factor(h)
    except scipy.linalg.LinAlgError as exc:
        raise AssumptionViolation(
            "cost curvature", "closed-loop cost Hessian is not positive definite") from exc
    lo, hi = symmetric_eig_bounds(h)
    return max(lo, 1e-12), max(hi, lo, 1e-12)


def optimal_steady_state(manifold, cost, model):
    """Benchmark steady state: argmin over S-bar of L(x, u + Kx)."""
    solvers = getattr(manifold, "_oss_solvers", None)
    if solvers is None:
        solvers = manifold._oss_solvers = {}
    key = (id(cost.q_x), id(cost.q_u))
    entry = solvers.get(key)
    if entry is None or entry[0] is not cost.q_x or entry[1] is not cost.q_u:
        g = manifold.g_k
        mmap = np.eye(model.m) + model.k @ g
        h = g.T @ cost.q_x @ g + mmap.T @ cost.q_u @ mmap
        h = 0.5 * (h + h.T)
        pre = PrefactoredQp(h, ineq_normals=manifold.sbar.normals)
        entry = (cost.q_x, cost.q_u, pre, cost.q_x.T @ g, cost.q_u.T @ mmap)
        if len(solvers) > 64:
            solvers.clear()
        solvers[key] = entry
    _, _, pre, gq, mq = entry
    q = -(gq.T @ cost.ref_x + mq.T @ cost.ref_u)
    sol = pre.solve(q, ineq_offsets=manifold.sbar.offsets)
    if sol.status != "optimal":
        raise InfeasibleError(f"steady-state benchmark QP: {sol.status}")
    return manifold.zeta_of_u(sol.x)
