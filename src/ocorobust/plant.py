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

from . import invariance
from .convexsets import (
    ROW_BLOCK,
    HPolytope,
    Zonotope,
    ZonotopeMembership,
    pontryagin_deduct,
    zonotope_in_polytope,
)
from .denseqp import PrefactoredQp, polytope_is_empty
from .errors import AssumptionViolation, DimensionMismatch, FactorizationError, InfeasibleError
from .matlin import (
    as_matrix,
    as_vector,
    numeric_rank,
    power_norm_certificate,
    spd_inverse,
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
    membership_tol: float = 1e-9


class PlantModel:
    """Validated problem instance with precomputed rollout operators."""

    def __init__(self, cfg, a, b, k, a_k, g_k, s_c, s_c_pinv, mu, mu_star,
                 w_bar, p_rpi, p_tail, checks):
        self.a, self.b, self.k = a, b, k
        self.a_k, self.g_k = a_k, g_k
        self.s_c, self.s_c_pinv = s_c, s_c_pinv
        self.mu, self.mu_star = mu, mu_star
        self.n, self.m = a.shape[0], b.shape[1]
        self.x_set, self.u_set = cfg.x_set, cfg.u_set
        self.w_set, self.v_set = cfg.w_set, cfg.v_set
        self.w_bar = w_bar
        self.p_rpi, self.p_tail = p_rpi, p_tail
        self.checks = checks
        self.membership_tol = cfg.membership_tol
        self.k_bar = np.block([
            [np.eye(self.n), np.zeros((self.n, self.m))],
            [k, np.eye(self.m)],
        ])
        self.c_g_min = spectral_norm_upper(s_c_pinv)
        self._build_rollout_maps()
        self._tube = ZonotopeMembership(p_tail)
        self._w = ZonotopeMembership(cfg.w_set)
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

    def tube_margins(self, devs):
        """Signed margin (<= 0 inside) of each row of ``devs`` against the tail set."""
        return self._tube.margins(devs)

    # The loop's tube monitor calls it under this name, which perfbench traces
    # as a monitor span (perfbench/layers.py MONITORS).
    tube_margin = tube_margins

    def w_margins(self, ws):
        """Signed margin (<= 0 inside) of each row of ``ws`` against W."""
        return self._w.margins(ws)


def build_w_bar(a, w_set, v_set):
    """Combined disturbance of the measured-state dynamics: V (+) -AV (+) W."""
    a = as_matrix(a, "a")
    v_bar = v_set.minkowski_sum(v_set.linear_image(-a))
    return v_bar.minkowski_sum(w_set).prune()


def build_model(cfg):
    """Assemble and validate a PlantModel.

    The standing assumptions are checked in order; ``model.checks`` lists
    them as (label, detail) pairs. A failed check raises AssumptionViolation
    with its name and label and the pairs of the checks that passed before it.
    """
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
    if n > 3:
        raise DimensionMismatch(f"n={n} states, but the zonotope facet form supports n <= 3 only")

    checks = []

    def check(ok, label, name, message, detail=""):
        if not ok:
            raise AssumptionViolation(name, message, label=label, checks=checks)
        checks.append((label, detail))

    check(cfg.w_set.contains_origin_interior() and cfg.v_set.contains_origin_interior(),
          "disturbance sets contain 0 (Assumption on W, V)", "disturbance sets",
          "W and V must be full-dimensional and contain 0 in the interior")
    ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
    check(numeric_rank(ctrb) == n, "(A, B) controllable", "controllability",
          "(A, B) is not controllable")
    problem = None
    for s, nm in ((cfg.x_set, "X"), (cfg.u_set, "U")):
        if not s.is_compact():
            problem = f"{nm} is not compact"
        elif not s.contains_origin_interior():
            problem = f"{nm} must contain 0 in its interior"
        if problem:
            break
    check(problem is None, "X, U compact with 0 interior", "constraint sets", problem)

    a_k = a + b @ k
    check(power_norm_certificate(a_k) is not None, "A + BK certified Schur",
          "stabilizing feedback", "A + BK not certified Schur within n_max powers")

    mu_star = next((cand for cand in range(1, n + 1)
                    if numeric_rank(_controllability(a_k, b, cand)) == n), None)
    label = "horizon covers controllability index (mu >= mu*)"
    if mu_star is None:
        raise AssumptionViolation("controllability", "stabilized pair lost controllability",
                                  label=label, checks=checks)
    check(cfg.mu >= mu_star, label, "horizon",
          f"mu={cfg.mu} below controllability index {mu_star}", f"mu*={mu_star}")

    s_c = _controllability(a_k, b, cfg.mu)
    check(numeric_rank(s_c) == n, "S_c full row rank", "horizon",
          "S_c is rank deficient at the chosen horizon")

    w_bar = build_w_bar(a, cfg.w_set, cfg.v_set)
    p_rpi = invariance.mrpi_outer(a_k, w_bar, epsilon=cfg.rpi_epsilon)
    check(zonotope_in_polytope(p_rpi.p, cfg.x_set, tol=cfg.membership_tol),
          "RPI set P inside X", "rpi containment", "RPI set P is not contained in X")
    p_tail = invariance.tail_set(a_k, cfg.mu, p_rpi)

    g_k = np.linalg.solve(np.eye(n) - a_k, b)
    s_c_pinv = s_c.T @ spd_inverse(s_c @ s_c.T, "S_c S_c'")

    return PlantModel(cfg, a, b, k, a_k, g_k, s_c, s_c_pinv, cfg.mu, mu_star,
                      w_bar, p_rpi, p_tail, checks)


def _controllability(a_k, b, mu):
    # Reordered: [A_K^{mu-1} B, ..., A_K B, B] so the first input block acts first.
    blocks = [b]
    for _ in range(mu - 1):
        blocks.append(a_k @ blocks[-1])
    return np.hstack(blocks[::-1])


@dataclass
class TighteningTables:
    """The tightened mu-step rollout constraints as one affine residual map,
    and the fixed linear maps of a controller step.

    The residuals of all stage constraints are affine in the measured state x
    and the input sequence useq: ``residual_x @ x + residual_u @ useq -
    residual_offsets``, stacked as the mu state stages (fx rows each) and then
    the mu input stages (fu rows each). ``rollout_x`` and ``rollout_u`` hold
    those rows and, under them, three blocks affine in (x, useq), with pred =
    A_K^mu x + S_c useq the mu-step prediction and u_ss the last input of useq
    (as in the controller's shifted plan): the gradient point v = u_ss +
    K pred (m rows), the projection's base linear term q0 = -2 (G_K' pred +
    u_ss) (m rows) and pred itself (n rows). So one product in x plus one in
    useq gives all four; the residual maps are views of their first rows.

    ``ogd_map`` is M = [G_K' | G_K' K' + I]: a gradient step of size gamma
    from (pred, u_ss) moves the projection's linear term to
    q0 + 2 gamma M [gx; gv]. ``explicit_map`` is [S_c^+; R_u S_c^+], with R_u
    = ``residual_u``: one product with the reach gap d gives the least-norm
    additional input S_c^+ d and its growth of the stage residuals.
    ``feedback`` is the gain K of the step's input u = plan[:m] + K x_meas.
    """

    rollout_x: np.ndarray = field(repr=False)         # (mu*(fx+fu) + n + 2m, n)
    rollout_u: np.ndarray = field(repr=False)         # (mu*(fx+fu) + n + 2m, mu*m)
    residual_x: np.ndarray = field(repr=False)        # (mu*(fx+fu), n)
    residual_u: np.ndarray = field(repr=False)        # (mu*(fx+fu), mu*m)
    ogd_map: np.ndarray = field(repr=False)           # (m, n+m)
    explicit_map: np.ndarray = field(repr=False)      # (mu*m + mu*(fx+fu), n)
    feedback: np.ndarray = field(repr=False)          # (m, n)
    state_offsets: np.ndarray = field(repr=False)     # (mu, fx) tightened
    input_offsets: np.ndarray = field(repr=False)     # (mu, fu) tightened
    residual_offsets: np.ndarray = field(repr=False)  # both, flattened


def build_tightening(model):
    """Per-stage tightened state and input constraint sets.

    Stage tau state constraint: X shrunk by the support of sum_{j<=tau}
    A_K^j W_bar. Stage tau input constraint: U shrunk by K times the sum up
    to tau-1 (the tau = 0 entry is U itself, empty-sum convention).
    """
    mu = model.mu
    state_sets, input_sets = [], []
    acc = None
    for tau in range(mu):
        term = model.w_bar.linear_image(model.a_k_powers[tau])
        input_sets.append(model.u_set if tau == 0
                          else pontryagin_deduct(model.u_set, acc.linear_image(model.k)))
        acc = term if acc is None else acc.minkowski_sum(term).prune()
        state_sets.append(pontryagin_deduct(model.x_set, acc))
    for kind, stages in (("state", state_sets), ("input", input_sets)):
        for tau, stage in enumerate(stages):
            if polytope_is_empty(stage.normals, stage.offsets):
                raise InfeasibleError(
                    f"tightened {kind} constraint set empty at stage tau={tau}")
    # Stage tau checks the state x_{tau+1} and the input u_tau + K x_tau.
    eye = np.eye(mu)
    hx = np.kron(eye, model.x_set.normals)
    hu = np.kron(eye, model.u_set.normals)
    kb = np.kron(eye, model.k)
    state_offsets = np.stack([t.offsets for t in state_sets])
    input_offsets = np.stack([t.offsets for t in input_sets])
    r = state_offsets.size + input_offsets.size
    m = model.m
    last = np.zeros((m, mu * m))  # picks u_ss, the last input of useq
    last[:, -m:] = np.eye(m)
    pred_x, pred_u = model.a_k_powers[mu], model.s_c
    gt = model.g_k.T
    rollout_x = np.vstack([hx @ model._sx, hu @ kb @ model._px, model.k @ pred_x,
                           -2.0 * (gt @ pred_x), pred_x])
    rollout_u = np.vstack([hx @ model._su, hu @ (np.eye(mu * m) + kb @ model._pu),
                           model.k @ pred_u + last, -2.0 * (gt @ pred_u + last), pred_u])
    residual_u = rollout_u[:r]
    return TighteningTables(
        rollout_x=rollout_x,
        rollout_u=rollout_u,
        residual_x=rollout_x[:r],
        residual_u=residual_u,
        ogd_map=np.hstack([gt, gt @ model.k.T + np.eye(m)]),
        explicit_map=np.vstack([model.s_c_pinv, residual_u @ model.s_c_pinv]),
        feedback=model.k,
        state_offsets=state_offsets,
        input_offsets=input_offsets,
        residual_offsets=np.concatenate([state_offsets.ravel(), input_offsets.ravel()]),
    )


def stage_values(tables, x, useq):
    """Signed stage constraint residuals for a rollout from x, as one vector:
    the mu state stages, then the mu input stages."""
    x = np.asarray(x, float).reshape(-1)
    useq = np.asarray(useq, float).reshape(-1)
    return tables.residual_x @ x + tables.residual_u @ useq - tables.residual_offsets


def stage_values_linear(tables, useq):
    """Linear part of the stage residuals in the input sequence (x = 0, no offsets)."""
    return tables.residual_u @ np.asarray(useq, float).reshape(-1)


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
    worst = float(stage_values(tables, x, useq).max())
    if tol is None:
        tol = model.membership_tol
    return worst <= tol, worst


@dataclass
class SteadyStateManifold:
    """Robustly feasible steady states, parameterized by the input u.

    ``sbar`` is S in u-coordinates with its offsets scaled by the shrink
    factor, the set the controller projects onto. ``projector`` is the
    Euclidean projection QP onto S-bar in u-coordinates, with x = G_K u
    substituted: Hessian 2 (G_K' G_K + I).
    """

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
    return SteadyStateManifold(sbar=HPolytope(normals, shrink * offsets), g_k=model.g_k)


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
    works in its place. A quadratic form sees only the symmetric part of its
    weight, so a weight that differs from its transpose is stored as its
    symmetric part (Q + Q')/2: ``value`` is the same, and ``grad`` and every
    map built from the weights are the true gradient's. A symmetric weight
    is kept as the array given.
    """

    q_x: np.ndarray
    q_u: np.ndarray
    ref_x: np.ndarray
    ref_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_x", _symmetric_part(as_matrix(self.q_x, "q_x")))
        object.__setattr__(self, "q_u", _symmetric_part(as_matrix(self.q_u, "q_u")))
        object.__setattr__(self, "ref_x", as_vector(self.ref_x, "ref_x"))
        object.__setattr__(self, "ref_u", as_vector(self.ref_u, "ref_u"))

    def with_ref_x(self, ref_x):
        """This cost with another state reference; only ``ref_x`` is validated.

        The weight arrays are the same objects, so a ``SteadyStateBenchmark``
        or a step map that serves this cost serves the result too. Built
        without ``copy.copy``, which costs more than the rest of the call.
        """
        cost = object.__new__(type(self))
        cost.__dict__.update(self.__dict__, ref_x=as_vector(ref_x, "ref_x"))
        return cost

    def value(self, x, v):
        dx = np.asarray(x, float) - self.ref_x
        dv = np.asarray(v, float) - self.ref_u
        return float(0.5 * dx @ self.q_x @ dx + 0.5 * dv @ self.q_u @ dv)

    def grad(self, x, v):
        dx = np.asarray(x, float) - self.ref_x
        dv = np.asarray(v, float) - self.ref_u
        return self.q_x @ dx, self.q_u @ dv


def _symmetric_part(q):
    """(q + q')/2 when the square ``q`` differs from its transpose, else q itself."""
    if q.shape[0] == q.shape[1] and (q != q.T).any():
        return 0.5 * (q + q.T)
    return q


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
        spd_inverse(h, "closed-loop cost Hessian")
    except FactorizationError as exc:
        raise AssumptionViolation("cost curvature", str(exc)) from exc
    lo, hi = symmetric_eig_bounds(h)
    return max(lo, 1e-12), max(hi, lo, 1e-12)


class SteadyStateBenchmark:
    """The benchmark QP for one pair of cost weights (q_x, q_u).

    In u-coordinates (x = G_K u) the Hessian and the S-bar rows depend only
    on the weights, so the solver and the maps from the references to the
    linear term are built once; a solve passes only the linear term.
    """

    def __init__(self, manifold, model, cost):
        g = manifold.g_k
        mmap = np.eye(model.m) + model.k @ g
        h = g.T @ cost.q_x @ g + mmap.T @ cost.q_u @ mmap
        self.manifold = manifold
        self.q_x, self.q_u = cost.q_x, cost.q_u
        self.solver = PrefactoredQp(0.5 * (h + h.T), ineq_normals=manifold.sbar.normals)
        self.ref_x_map = cost.q_x.T @ g
        self.ref_u_map = cost.q_u.T @ mmap

    def serves(self, cost):
        """True when ``cost`` has this benchmark's weight arrays."""
        return cost.q_x is self.q_x and cost.q_u is self.q_u

    def steady_states(self, ref_x, ref_u, steps):
        """The benchmark steady states of the reference rows ``ref_x`` (k, n)
        and ``ref_u`` (k, m) under this benchmark's weights, as rows (theta,
        eta). ``RunRecord.finish`` calls it once per weight pair of
        ``record.pairs``, on the ref_x and ref_u columns of the rows whose
        ``pair`` names it: a benchmark is shared per weight pair, not per run
        of consecutive steps.

        One batched guess (``PrefactoredQp.guess_rows``) settles every row
        whose unconstrained optimum ``solve`` would keep; each other row
        takes ``steady_state``. A row that is not optimal raises
        ``InfeasibleError`` naming its entry of ``steps``.
        """
        linears = -(ref_x @ self.ref_x_map + ref_u @ self.ref_u_map)
        u, kept = self.solver.guess_rows(linears, self.manifold.sbar.offsets)
        theta = u @ self.manifold.g_k.T
        for i in np.flatnonzero(~kept):
            try:
                theta[i], u[i] = self.steady_state(ref_x[i], ref_u[i])
            except InfeasibleError as exc:
                raise InfeasibleError(f"step {steps[i]}: {exc}") from exc
        return theta, u

    def steady_state(self, ref_x, ref_u):
        """The benchmark steady state (theta, eta) of one reference pair, by
        one solve of the QP; ``InfeasibleError`` unless it is optimal."""
        q = -(self.ref_x_map.T @ ref_x + self.ref_u_map.T @ ref_u)
        sol = self.solver.solve(q, ineq_offsets=self.manifold.sbar.offsets)
        if sol.status != "optimal":
            raise InfeasibleError(f"steady-state benchmark QP: {sol.status}")
        return self.manifold.zeta_of_u(sol.x)


def optimal_steady_state(manifold, cost, model, benchmark=None):
    """Benchmark steady state: argmin over S-bar of L(x, u + Kx).

    ``benchmark`` is a ``SteadyStateBenchmark`` that serves ``cost``; without
    one, a one-shot benchmark is built.
    """
    if benchmark is None:
        benchmark = SteadyStateBenchmark(manifold, model, cost)
    return benchmark.steady_state(cost.ref_x, cost.ref_u)
