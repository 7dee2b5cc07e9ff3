import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from ocorobust import oco_controller as oco
from ocorobust import simkit
from ocorobust.convexsets import HPolytope, Zonotope, ZonotopeMembership
from ocorobust.errors import DimensionMismatch, InfeasibleError, OcoRobustError
from ocorobust.matlin import as_matrix, as_vector
from ocorobust.plant import (
    ModelConfig,
    QuadraticCost,
    build_model,
    build_tightening,
    membership_zu,
    optimal_steady_state,
    steady_state_manifold,
)


@pytest.fixture(scope="session")
def scalar_bundle():
    """1-D plant: A=1, B=1, K=-0.5, box sets."""
    cfg = ModelConfig(
        a=[[1.0]], b=[[1.0]], k=[[-0.5]], mu=2,
        x_set=HPolytope.box([-2.0], [2.0]),
        u_set=HPolytope.box([-1.0], [1.0]),
        w_set=Zonotope.box([0.1]),
        v_set=Zonotope.box([0.05]),
    )
    model = build_model(cfg)
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=0.99)
    return model, tables, manifold


@pytest.fixture(scope="session")
def di_bundle():
    """Disturbed double integrator, the generic 2-state test system."""
    cfg = ModelConfig(
        a=[[1.0, 0.1], [0.0, 1.0]], b=[[0.005], [0.1]], k=[[-1.5, -2.425]], mu=6,
        x_set=HPolytope.box([-3.0, -2.0], [3.0, 2.0]),
        u_set=HPolytope.box([-4.0], [4.0]),
        w_set=Zonotope.box([0.02, 0.02]),
        v_set=Zonotope.box([0.01, 0.01]),
    )
    model = build_model(cfg)
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=0.99)
    return model, tables, manifold


@pytest.fixture(params=["scalar", "di", "vehicle"])
def tables_bundle(request, scalar_bundle, di_bundle):
    """(model, tables) of the scalar plant, the double integrator and the
    vehicle's reduced model."""
    if request.param == "vehicle":
        from ocorobust import vehicle

        setup = vehicle.vehicle_setup(vehicle.VehicleParams())
        return setup.model, setup.tables
    return (scalar_bundle if request.param == "scalar" else di_bundle)[:2]


@pytest.fixture(scope="session")
def di_cost():
    return QuadraticCost([[1.0, 0.0], [0.0, 1.0]], [[0.5]], [-0.6, 0.0], [0.0])


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return m.T @ m + scale * np.eye(n)


def lp_support(p, d):
    """Support value of the HPolytope ``p`` along ``d`` by LP; None when unbounded.

    The test-side oracle for the package's QP-based polytope checks.
    """
    res = linprog(-np.asarray(d, float), A_ub=p.normals, b_ub=p.offsets,
                  bounds=(None, None), method="highs")
    if res.status == 3:
        return None
    assert res.status == 0, res.message
    return float(-res.fun)


def support(z, d):
    """Support value of the zonotope ``z`` along the one direction ``d``."""
    return float(z.support_batch(np.reshape(d, (1, -1)))[0])


def zonotope_contains(z, x, tol=1e-9):
    """Membership of the point ``x`` in the zonotope ``z``, by the margin of
    ``ZonotopeMembership``."""
    return bool(ZonotopeMembership(z).margins([x])[0] <= tol)


def direction_net(dim, count=None, include_axes=True):
    """Deterministic set of unit directions used for set comparisons."""
    if count is None:
        count = max(64, 2 ** (2 * dim))
    dirs = []
    if include_axes:
        eye = np.eye(dim)
        dirs.extend(eye)
        dirs.extend(-eye)
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        dirs.extend(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    else:
        rng = np.random.default_rng(12345)
        raw = rng.standard_normal((count, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        dirs.extend(raw)
    return np.asarray(dirs)


def certify_rpi(p, a_k, w_bar, tol=1e-9):
    """Check A_K p (+) W_bar inside p over facet normals and a direction net.

    The reference RPI check of criterion 7: exact up to the direction net;
    for dim <= 3 the facet normals of p make the test exact whenever p has
    full-dimensional generators.
    """
    a_k = as_matrix(a_k, "a_k")
    shifted = p.linear_image(a_k).minkowski_sum(w_bar)
    dirs = [direction_net(p.dim)]
    if p.dim <= 3:
        try:
            facets, _ = p.to_halfspaces()
            dirs.append(facets)
        except (ValueError, DimensionMismatch):
            pass
    directions = np.vstack(dirs)
    lhs = shifted.support_batch(directions)
    rhs = p.support_batch(directions)
    return bool(np.all(lhs <= rhs + tol))


def box_vertices(z):
    """All corners of a zonotope (exponential; tests keep the order small)."""
    q = z.order
    pts = []
    for mask in range(2 ** q):
        signs = np.array([1.0 if mask & (1 << j) else -1.0 for j in range(q)])
        pts.append(z.center + z.generators @ signs)
    return np.asarray(pts)


def ogd_step_at(tables, model, manifold, grad_prev, gamma, pred, u_ss):
    """``oco.ogd_step`` from the predicted steady state (pred, u_ss), with the
    gradient point v = u_ss + K pred and the projection's base term
    q0 = -2 (G_K' pred + u_ss) formed directly; inside ``oco.step`` they are
    rows of the stacked rollout product."""
    v = u_ss + model.k @ pred
    q0 = -2.0 * (model.g_k.T @ pred + u_ss)
    return oco.ogd_step(tables, manifold, grad_prev, gamma, pred, v, q0)


def max_beta_bisect(tables, model, x_meas, base_seq, g, tol=None, resolution=1e-10):
    """Bisection solution of the beta problem, the cross-check of ``oco.max_beta``."""
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


def cost_value(cost, x, v):
    """The ``QuadraticCost`` ``cost`` at the state ``x`` and the physical input
    ``v``: 1/2 (x-ref_x)'Qx(x-ref_x) + 1/2 (v-ref_u)'Qu(v-ref_u), one point
    at a time (the package's ledger sums every row's cost at once)."""
    dx = np.asarray(x, float) - cost.ref_x
    dv = np.asarray(v, float) - cost.ref_u
    return float(0.5 * dx @ cost.q_x @ dx + 0.5 * dv @ cost.q_u @ dv)


def row_cost(trace, i):
    """Row i's cost: the first cost of its weight pair (``trace.pairs``)
    with the row's ref_x and ref_u columns as its references."""
    return trace.pairs[trace.pair[i]].cost.with_ref_x(trace.ref_x[i], trace.ref_u[i])


def reference_ledger(trace, model):
    """A run's costs and totals one step at a time, as a running loop sums them.

    Per step: ``cost_value`` of the step's cost (``row_cost``) at the true
    state and input and at the benchmark steady state, and
    ``np.linalg.norm`` of the benchmark's move, w and v. Returns (costs,
    benchmark costs, cum_regret, path_length, w_energy, v_energy).
    """
    costs, benches = [], []
    regret = path = w_energy = v_energy = 0.0
    prev = None
    for i, rec in enumerate(trace):
        cost = row_cost(trace, i)
        theta, eta = trace.benchmark_theta[i], trace.benchmark_eta[i]
        costs.append(cost_value(cost, rec.x_true, rec.u))
        benches.append(cost_value(cost, theta, eta + model.k @ theta))
        regret += costs[-1] - benches[-1]
        zeta = np.concatenate([theta, eta])
        if prev is not None:
            path += float(np.linalg.norm(zeta - prev))
        prev = zeta
        w_energy += float(np.linalg.norm(rec.w))
        v_energy += float(np.linalg.norm(rec.v))
    return np.array(costs), np.array(benches), regret, path, w_energy, v_energy


def assert_ledger_matches_reference(trace, ledger, model, rel=1e-12):
    costs, benches, *totals = reference_ledger(trace, model)
    assert np.allclose(trace.cost, costs, rtol=rel, atol=1e-15)
    assert np.allclose(trace.benchmark_cost, benches, rtol=rel, atol=1e-15)
    got = (ledger.cum_regret, ledger.path_length, ledger.w_energy, ledger.v_energy)
    assert got == pytest.approx(tuple(totals), rel=rel, abs=0.0)


def assert_benchmark_matches_per_row(trace, model, manifold, rel=1e-12):
    """Every row's benchmark steady state, solved after the run, against
    ``optimal_steady_state`` of that row's cost (``row_cost``) alone
    (norm-wise relative)."""
    assert len(trace.pair) == len(trace.benchmark_theta) == len(trace.benchmark_eta)
    for i in range(len(trace.pair)):
        theta, eta = optimal_steady_state(manifold, row_cost(trace, i), model)
        for got, want in ((trace.benchmark_theta[i], theta), (trace.benchmark_eta[i], eta)):
            assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want), (i, got, want)


def reference_rollout_linear(model, q_x, q_u, x_meas, candidate, theta_hat):
    """The rollout QP's linear term in the per-step form: the rollout's
    states c_x = P0 x + E candidate and inputs c_v = candidate + K_b c_x,
    weighted against theta_hat tiled over the mu stages. The reference for
    the fixed maps of ``QuadraticRolloutBuilder``. Returns the term and the
    summed norms of its three parts, the scale its rounding is relative to
    (the parts cancel to a far smaller term)."""
    mu = model.mu
    e, p0 = model._pu, model._px
    kb = np.kron(np.eye(mu), model.k)
    mmap = np.eye(mu * model.m) + kb @ e
    qxe = np.kron(np.eye(mu), np.asarray(q_x, float)) @ e
    qum = np.kron(np.eye(mu), np.asarray(q_u, float)) @ mmap
    c_x = p0 @ x_meas + e @ candidate
    c_v = candidate + kb @ c_x
    refs = np.tile(theta_hat, mu)
    parts = (qxe.T @ c_x, qxe.T @ refs, qum.T @ c_v)
    return (qxe.T @ (c_x - refs) + qum.T @ c_v,
            sum(float(np.linalg.norm(part)) for part in parts))


def reference_gap_offsets(model, x_meas, candidate, gap_meas, est_speed_dev, safety):
    """The vehicle's soft safety-row offsets in the per-step form: the gap
    less TAU times the cumulative rollout speeds ``cum_speed @ c_x``. Returns
    the offsets and the summed norms of their parts (see
    ``reference_rollout_linear``)."""
    from ocorobust.vehicle import TAU

    mu, n = model.mu, model.n
    speed_rows = np.zeros((mu, mu * n))
    for j in range(mu):
        speed_rows[j, j * n + 1] = 1.0
    cum_speed = np.vstack([np.zeros((1, mu * n)), np.cumsum(speed_rows, axis=0)])
    c_x = model._px @ x_meas + model._pu @ candidate
    ks = np.arange(mu + 1)
    parts = (gap_meas, TAU * ks * est_speed_dev, TAU * (cum_speed @ c_x), safety)
    return (gap_meas + TAU * ks * est_speed_dev - TAU * (cum_speed @ c_x) - safety,
            sum(float(np.linalg.norm(part)) for part in parts))


def guess_kept(projector, linear, x, offsets):
    """Whether the step's projection keeps the guess ``x`` of ``linear``:
    the test ``PrefactoredQp._from_guess`` applies, without its fallback."""
    guess = projector._assemble(projector.stacked @ x, linear, offsets, projector.no_eq,
                                x, None, projector.no_eq, "optimal")
    return guess is not None and guess.status == "optimal"


def rows_kept(projector, grad, viol):
    """Whether the projection keeps a guess whose stacked products are the
    rows ``grad`` (H x + q) and ``viol`` (A x - b): the test
    ``PrefactoredQp._from_guess`` applies (``_assemble``), on those
    numbers (q = 0 and b = 0)."""
    n, zeros = grad.size, np.zeros(grad.size)
    guess = projector._assemble(np.concatenate([grad, viol]), zeros, np.zeros(viol.size),
                                projector.no_eq, zeros, None, projector.no_eq, "optimal")
    return guess is not None and guess.status == "optimal"


def per_step_rollout(model, rollout, x_meas, candidate, theta_hat, d, c_g):
    """The optimized additional input in its per-step form, the oracle of
    ``oco.additional_input_optimized``: the rollout QP is built (its linear
    term and offsets, each from its own rows of the map) and handed to
    ``PrefactoredQp.solve``, which forms and tests its own guess. Returns
    (g, KKT residual, fallback, the linear term's norm: the scale the KKT
    residual's rounding is relative to)."""
    rollout_map, shift = rollout
    nv = model.mu * model.m
    norm = float(np.linalg.norm(d))
    if norm <= oco.DEGENERATE_TOL:
        return np.zeros(nv), None, False, 0.0
    w = np.concatenate([x_meas, candidate, theta_hat, d, [1.0]])
    linear = rollout_map.matrix[rollout_map.linear] @ w
    offsets = None if shift is None else rollout_map.matrix[rollout_map.offsets] @ w + shift
    try:
        sol = rollout_map.solver.solve(linear, ineq_offsets=offsets, eq_offsets=d)
    except (OcoRobustError, np.linalg.LinAlgError):
        return model.s_c_pinv @ d, None, True, 0.0
    g, scale = sol.x[:nv], float(np.linalg.norm(linear))
    if sol.status != "optimal" or np.linalg.norm(g) > c_g * norm * (1 + 1e-9):
        return model.s_c_pinv @ d, sol.kkt_residual, True, scale
    return g, sol.kkt_residual, False, scale


@pytest.fixture
def rollout_oracle(monkeypatch):
    """While active, every optimized step's additional input must agree with
    ``per_step_rollout``: g within 1e-12 relative, the KKT residual within
    1e-12 of the linear term's scale, the same fallback. That covers the
    steps whose ``oco.OptimizedRows`` rows decide it
    (``OptimizedRows.additional_input`` returns it) and every
    ``oco.additional_input_optimized`` call. Returns the list of (rollout,
    (x_meas, candidate, theta_hat, d), (g, KKT residual, fallback), whether
    the rows decided it) of the compared steps."""
    real, real_rows, seen = oco.additional_input_optimized, oco.OptimizedRows.additional_input, []
    step, context = oco.step_row, {}

    def compare(model, rollout, args, got, c_g, from_rows):
        g, kkt, fallback = got
        want = per_step_rollout(model, rollout, *args, c_g)
        assert_close(g, want[0], 1e-12, "g")
        assert (kkt is None) == (want[1] is None) and fallback == want[2]
        if kkt is not None:
            assert abs(kkt - want[1]) <= 1e-12 * (1.0 + want[3]), (kkt, want)
        seen.append((rollout, args, got, from_rows))

    def checked(model, rollout, x_meas, candidate, theta_hat, d, c_g):
        got = real(model, rollout, x_meas, candidate, theta_hat, d, c_g)
        compare(model, rollout, (x_meas, candidate, theta_hat, d), got, c_g, False)
        return got

    def from_rows(rows, out, x_meas, candidate, shift, gap_norm, c_g):
        got = real_rows(rows, out, x_meas, candidate, shift, gap_norm, c_g)
        if got is not None:
            compare(context["model"], (rows.rollout_map, shift),
                    (x_meas, candidate, out[rows.theta], out[rows.gap]),
                    (got[0], got[2], False), c_g, True)
        return got

    def stepped(rows, i, model, *args):
        context["model"] = model  # the model from_rows compares on
        return step(rows, i, model, *args)

    monkeypatch.setattr(oco, "additional_input_optimized", checked)
    monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
    monkeypatch.setattr(oco, "step_row", stepped)
    return seen


def row_state(rows, i):
    """Row i of ``oco.ControllerRows`` as the ``oco.ControllerState`` that
    ``oco.step`` takes and returns."""
    return oco.ControllerState(plan=rows.plan[i], zeta_hat=(rows.theta_hat[i], rows.eta_hat[i]),
                               t=int(rows.t[i]))


def row_step(rows, i):
    """Row i as ``oco.step`` returns a step: (u, state, diagnostics)."""
    return rows.u[i], row_state(rows, i), rows.diagnostics(i)


def step_with(monkeypatch, step_row, *args):
    """``oco.step(*args)`` with ``step_row`` as its row step: a spy on
    ``oco.step_row`` takes its reference steps through the step it wraps."""
    with monkeypatch.context() as patch:
        patch.setattr(oco, "step_row", step_row)
        return oco.step(*args)


def assert_close(got, want, rel, what):
    """|got - want| <= rel (1 + |want|) entrywise."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape, what
    excess = np.abs(got - want) - rel * (1.0 + np.abs(want))
    assert np.all(excess <= 0.0), (what, float(np.max(excess)))


def assert_steps_agree(got, want, rel=1e-12, beta_slack=0.0):
    """Two ``oco.step`` results (u, state, diagnostics) agree within rel;
    beta within rel plus ``beta_slack``."""
    (u, state, diag), (u_ref, state_ref, diag_ref) = got, want
    assert_close(u, u_ref, rel, "u")
    assert_close(state.plan, state_ref.plan, rel, "plan")
    assert_close(diag.ogd_target[0], diag_ref.ogd_target[0], rel, "theta_hat")
    assert_close(diag.ogd_target[1], diag_ref.ogd_target[1], rel, "eta_hat")
    assert abs(diag.beta - diag_ref.beta) <= rel * (1.0 + abs(diag_ref.beta)) + beta_slack, (
        "beta", diag.beta, diag_ref.beta)
    assert_close(diag.g_norm, diag_ref.g_norm, rel, "g_norm")
    assert diag.g_fallback == diag_ref.g_fallback
    assert diag.candidate_feasible == diag_ref.candidate_feasible


def beta_roundoff(residual_u, base, shift, g):
    """How far a beta below 1 moves when the candidate's stage residuals
    ``base`` move by up to ``shift``: beta = -base_j / growth_j at the binding
    row j (growth = ``residual_u @ g``), so by shift / growth_j."""
    growth = residual_u @ g
    rising = growth > 1e-14 * max(1.0, float(np.abs(growth).max()))
    ratios = np.maximum(-base[rising], 0.0) / growth[rising]
    return shift / float(growth[rising][np.argmin(ratios)])


class StepByStep(simkit._LtiPlant):
    """An ``_LtiPlant`` with ``observe`` and ``advance`` of its own (the
    same ones), so ``closed_loop`` runs it step by step: every step after
    the first goes through ``oco.step_row``."""

    def observe(self, t):
        return super().observe(t)

    def advance(self, u):
        return super().advance(u)


@pytest.fixture
def step_by_step(monkeypatch):
    """While active, ``run_closed_loop`` (and so the regret sweep) drives a
    ``StepByStep`` plant: the same run, with no step run ahead."""
    monkeypatch.setattr(simkit, "_LtiPlant", StepByStep)


def count_calls(monkeypatch, *names):
    """Count the calls of the ``oco`` functions ``names`` while patched."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(oco, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oco, name, counted)
    return calls


def faces_off(patch):
    """Turn the step's face rows off (``oco._face_rows``): every rejected
    projection guess then takes ``PrefactoredQp._rejected``, the one-row
    step or GI, as the faces' reference."""
    patch.setattr(oco, "_face_rows", lambda *args: None)


def count_faces(monkeypatch):
    """While patched, one entry per call of ``oco._face_rows`` (one per
    rejected projection guess of a map step): whether the face decided
    the step."""
    real, decided = oco._face_rows, []

    def counted(*args):
        face = real(*args)
        decided.append(face is not None)
        return face

    monkeypatch.setattr(oco, "_face_rows", counted)
    return decided


@pytest.fixture
def both_paths(monkeypatch, step_by_step):
    """While active, every ``oco.step_row`` a loop makes must get a step map
    (its cost's weight pair's), and its row must agree with the same step
    from the row before through the gradient oracle (``oco.step``,
    ``assert_steps_agree``). The map's stage residuals must match their
    per-step form within 1e-12 of the offsets' scale; beta may move by what
    that difference moves it (``beta_roundoff``). ``run_closed_loop`` runs step by step
    (``step_by_step``), so every step is compared. Returns the list of (t,
    cost) of the compared steps."""
    real, seen = oco.step_row, []

    def checked(record, i, model, tables, manifold, x_meas, grad_prev, options, step_map=None,
                ref_row=None):
        real(record, i, model, tables, manifold, x_meas, grad_prev, options, step_map, ref_row)
        out, state = row_step(record, i), row_state(record, i - 1)
        assert step_map is not None
        ref = step_with(monkeypatch, real, state, model, tables, manifold, x_meas, grad_prev,
                        options, None, ref_row)
        # The map's stage residuals against their per-step form, at the
        # scale of the offsets they are computed from.
        x_meas, candidate = np.asarray(x_meas, float), state.plan[model.m:]
        rows = tables.rollout_x @ x_meas + tables.rollout_u @ candidate
        base = rows[:tables.residual_offsets.size] - tables.residual_offsets
        rows = step_map.rows_at(x_meas, candidate, grad_prev.ref_x, grad_prev.ref_u)
        shift = np.abs(rows[step_map.base] - base)
        assert np.all(shift <= 1e-12 * (1.0 + np.abs(tables.residual_offsets))), "base"
        slack = 0.0
        if 0.0 < ref[2].beta < 1.0:
            g = (ref[1].plan[:-model.m] - candidate) / ref[2].beta
            slack = beta_roundoff(tables.residual_u, base, float(shift.max()), g)
        assert_steps_agree(out, ref, beta_slack=slack)
        seen.append((state.t + 1, grad_prev))

    monkeypatch.setattr(oco, "step_row", checked)
    return seen


def _columns(record):
    return {name: value for name, value in vars(record).items() if isinstance(value, np.ndarray)}


def _pairs(record):
    """A record's weight-pair table: each entry's first cost by type and the
    bytes of its weights and references."""
    return [(type(entry.cost), *(np.asarray(getattr(entry.cost, f)).tobytes()
                                 for f in ("q_x", "q_u", "ref_x", "ref_u")))
            for entry in record.pairs]


def assert_records_agree(got, want, rel=None):
    """Two runs' (trace, ledger) agree: every float ``RunRecord`` column and
    every ledger total within ``rel`` (1 + |want|) entrywise, with NaN in the
    same places, or to the bit when ``rel`` is None; every other column,
    every flag column and the weight-pair tables (``_pairs``) the same."""
    (trace, ledger), (trace_ref, ledger_ref) = got, want
    mine, ref = _columns(trace), _columns(trace_ref)
    assert mine.keys() == ref.keys()
    assert _pairs(trace) == _pairs(trace_ref)
    for name, column in ref.items():
        assert mine[name].shape == column.shape and mine[name].dtype == column.dtype, name
        if rel is not None and column.dtype.kind == "f":
            _assert_close_or_nan(mine[name], column, rel, name)
        else:
            assert mine[name].tobytes() == column.tobytes(), name
    assert trace.flags.keys() == trace_ref.flags.keys()
    for name, column in trace_ref.flags.items():
        assert np.array_equal(trace.flags[name], column), name
    totals = [np.array(dataclasses.astuple(x)) for x in (ledger, ledger_ref)]
    if rel is None:
        assert totals[0].tobytes() == totals[1].tobytes(), (ledger, ledger_ref)
    else:
        _assert_close_or_nan(totals[0], totals[1], rel, "ledger")


def _assert_close_or_nan(got, want, rel, what):
    """NaN in the same places, and ``assert_close`` elsewhere."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), what
    assert_close(got[~nan], want[~nan], rel, what)

