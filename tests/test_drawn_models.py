"""The paper's guarantees on drawn models, against a greedy adversary.

Robust constraint satisfaction and recursive feasibility hold for any model
that meets the standing assumptions and for every admissible disturbance
sequence, adversarial ones included. Models are drawn with n <= 3 and
m <= n: A and B, K from the discrete Riccati equation (scipy, test-only;
K = 0 when it has no stabilizing solution), a horizon mu, and boxes for X,
U, W and V. A model that builds (``build_model``, ``build_tightening`` and
``steady_state_manifold``) must run through ``closed_loop`` in both variants
with no abort and no violated flag, and every row of its benchmark path must
equal the single solve; a model that does not build must be rejected with an
``OcoRobustError``.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_discrete_are

from ocorobust import oco_controller as oco
from ocorobust.convexsets import HPolytope, Zonotope
from ocorobust.errors import OcoRobustError
from ocorobust.plant import (
    ModelConfig,
    QuadraticCost,
    build_model,
    build_tightening,
    cost_curvature,
    optimal_steady_state,
    steady_state_manifold,
)
from ocorobust.simkit import PiecewiseSchedule, closed_loop

from conftest import assert_benchmark_matches_per_row, assert_records_agree, faces_off

HORIZON = 60


class GreedyAdversaryPlant:
    """x+ = A x + B u + w, measured as x + v, with the worst corners.

    Each step, w is the corner of W that pushes the next state hardest toward
    the most active facet of X (the largest residual per unit normal), and
    the next measurement noise v is the corner of V that hides that push: it
    moves the measurement away from the facet.
    """

    def __init__(self, model, schedule, x0):
        self.model, self.schedule = model, schedule
        self.x, self.v = np.asarray(x0, float), np.zeros(model.n)
        normals = model.x_set.normals
        self.scale = np.linalg.norm(normals, axis=1)

    def observe(self, t):
        return self.x, self.x + self.v, self.v, self.schedule.cost_at(t), None

    def advance(self, u):
        model = self.model
        nominal = model.a @ self.x + model.b @ u
        x_set = model.x_set
        facet = x_set.normals[np.argmax((x_set.normals @ nominal - x_set.offsets) / self.scale)]
        w_set, v_set = model.w_set, model.v_set
        w = w_set.center + w_set.generators @ np.sign(w_set.generators.T @ facet)
        self.v = v_set.center - v_set.generators @ np.sign(v_set.generators.T @ facet)
        self.x = nominal + w
        return w


@st.composite
def drawn_models(draw):
    """(ModelConfig, three state targets) with n <= 3 and m <= n."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    entry = st.floats(-1.5, 1.5, allow_nan=False)
    a = draw(arrays(float, (n, n), elements=entry))
    b = draw(arrays(float, (n, m), elements=entry))
    try:
        with np.errstate(all="ignore"):  # degenerate pairs make scipy cast NaNs
            p = solve_discrete_are(a, b, np.eye(n), np.eye(m))
        k = -np.linalg.solve(np.eye(m) + b.T @ p @ b, b.T @ p @ a)
    except (np.linalg.LinAlgError, ValueError):
        k = np.zeros((m, n))  # no stabilizing K: build_model must reject it
    if not np.isfinite(k).all():
        k = np.zeros((m, n))
    x_half = draw(arrays(float, n, elements=st.floats(0.5, 5.0)))
    u_half = draw(arrays(float, m, elements=st.floats(0.5, 5.0)))
    w_half = draw(arrays(float, n, elements=st.floats(0.005, 0.3)))
    v_half = draw(arrays(float, n, elements=st.floats(0.005, 0.2)))
    cfg = ModelConfig(a=a, b=b, k=k, mu=draw(st.integers(1, 6)),
                      x_set=HPolytope.box(-x_half, x_half),
                      u_set=HPolytope.box(-u_half, u_half),
                      w_set=Zonotope.box(w_half), v_set=Zonotope.box(v_half))
    # targets up to 1.5 times the X box, so some benchmark optima sit on S-bar
    targets = draw(arrays(float, (3, n), elements=st.floats(-1.5, 1.5))) * x_half
    return cfg, targets


def build(cfg):
    model = build_model(cfg)
    return model, build_tightening(model), steady_state_manifold(model, model.p_rpi)


def test_drawn_models_keep_the_guarantees():
    outcomes = Counter()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(drawn_models())
    def check(drawn):
        cfg, targets = drawn
        try:
            model, tables, manifold = build(cfg)
        except OcoRobustError:
            outcomes["rejected"] += 1
            return
        outcomes["built"] += 1
        n, m = model.n, model.m
        first = QuadraticCost(np.eye(n), np.eye(m), targets[0], np.zeros(m))
        # two pieces share the first weights (one batched guess), one does not
        pieces = ((0, first), (HORIZON // 3, first.with_ref_x(targets[1])),
                  (2 * HORIZON // 3, QuadraticCost(2.0 * np.eye(n), np.eye(m), targets[2],
                                                   np.zeros(m))))
        schedule = PiecewiseSchedule(pieces)
        zeta0 = optimal_steady_state(manifold, first, model)
        gamma = 1.0 / cost_curvature(first, model)[1]
        for variant in ("explicit", "optimized"):
            builder = (oco.QuadraticRolloutBuilder(model, np.eye(n), np.eye(m))
                       if variant == "optimized" else None)
            controller = oco.ControllerConfig(gamma=gamma, rollout_builder=builder)
            plant = GreedyAdversaryPlant(model, schedule, zeta0[0])
            trace, _ = closed_loop(model, tables, manifold, controller, plant, HORIZON, zeta0)
            violated = {name: int(np.count_nonzero(~column))
                        for name, column in trace.flags.items() if name != "tube_marginal"}
            assert sum(violated.values()) == 0, (variant, violated)
            assert_benchmark_matches_per_row(trace, model, manifold)

    check()
    # both sides of the property are exercised
    assert outcomes["built"] >= 10 and outcomes["rejected"] >= 5, outcomes


def test_drawn_models_step_map_matches_oracle(both_paths):
    # Every step of both variants through the step map agrees with the
    # gradient oracle from the same state (the ``both_paths`` fixture), on
    # costs with coupled, non-symmetric weights (``grad`` is q dx as it is)
    # and a non-zero input reference.
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(drawn_models())
    def check(drawn):
        cfg, targets = drawn
        try:
            model, tables, manifold = build(cfg)
        except OcoRobustError:
            return
        n, m = model.n, model.m
        q_x = np.eye(n) + 0.3 * np.eye(n, k=1) + 0.1 * np.eye(n, k=-1)
        q_u = np.eye(m) + 0.3 * (np.eye(m, k=1) - np.eye(m, k=-1))
        ref_u = 0.1 * cfg.u_set.offsets[:m]
        first = QuadraticCost(q_x, q_u, targets[0], ref_u)
        pieces = ((0, first), (10, first.with_ref_x(targets[1])),
                  (20, QuadraticCost(2.0 * np.eye(n), q_u.T, targets[2], -ref_u)))
        schedule = PiecewiseSchedule(pieces)
        zeta0 = optimal_steady_state(manifold, first, model)
        symmetric = QuadraticCost(0.5 * (q_x + q_x.T), np.eye(m), targets[0], ref_u)
        gamma = 1.0 / cost_curvature(symmetric, model)[1]
        for variant in ("explicit", "optimized"):
            builder = (oco.QuadraticRolloutBuilder(model, np.eye(n), np.eye(m))
                       if variant == "optimized" else None)
            controller = oco.ControllerConfig(gamma=gamma, rollout_builder=builder)
            plant = GreedyAdversaryPlant(model, schedule, zeta0[0])
            closed_loop(model, tables, manifold, controller, plant, 30, zeta0)

    check()
    assert len(both_paths) >= 10 * 2 * 29


def test_drawn_models_faces_match_their_fallback(monkeypatch):
    # Each model runs in both variants as it stands and again with the faces
    # off (``faces_off``: the projector's fallback from the same rows, the
    # faces' reference): every column within 1e-12 (1 + |.|) and every flag
    # the same. A face is kept only where the projector's one-row step from
    # the same rows is "optimal".
    outcomes, real = Counter(), oco._face_rows

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(drawn_models())
    def check(drawn):
        cfg, targets = drawn
        try:
            model, tables, manifold = build(cfg)
        except OcoRobustError:
            return
        n, m = model.n, model.m

        def face_rows(mapped, projector, out, viol, z_parts):
            face = real(mapped, projector, out, viol, z_parts)
            eta = out[mapped.eta]
            step = projector._one_row_step(projector.stacked @ eta, out[mapped.linear],
                                           manifold.sbar.offsets, projector.no_eq, eta)
            if step is None or step.status != "optimal":
                assert face is None
            outcomes["face" if face is not None else "declined"] += 1
            return face

        # targets up to 4.5 times the X box: most optima sit on S-bar, some
        # at its corners, where two rows bind and the faces fall back
        targets = 3.0 * targets
        first = QuadraticCost(np.eye(n), np.eye(m), targets[0], np.zeros(m))
        schedule = PiecewiseSchedule(((0, first), (HORIZON // 3, first.with_ref_x(targets[1])),
                                      (2 * HORIZON // 3, first.with_ref_x(targets[2]))))
        zeta0 = optimal_steady_state(manifold, first, model)
        gamma = 1.0 / cost_curvature(first, model)[1]
        for variant in ("explicit", "optimized"):
            builder = (oco.QuadraticRolloutBuilder(model, np.eye(n), np.eye(m))
                       if variant == "optimized" else None)
            controller = oco.ControllerConfig(gamma=gamma, rollout_builder=builder)

            def run():
                plant = GreedyAdversaryPlant(model, schedule, zeta0[0])
                return closed_loop(model, tables, manifold, controller, plant, HORIZON, zeta0)

            with monkeypatch.context() as patch:
                patch.setattr(oco, "_face_rows", face_rows)
                with_faces = run()
            with monkeypatch.context() as patch:
                faces_off(patch)
                assert_records_agree(with_faces, run(), rel=1e-12)

    check()
    assert outcomes["face"] >= 500 and outcomes["declined"] >= 100, outcomes
