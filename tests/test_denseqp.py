import itertools

import numpy as np
import pytest

from ocorobust.convexsets import HPolytope
from ocorobust.denseqp import (
    PrefactoredQp,
    QpProblem,
    polytope_is_empty,
    solve_qp,
)
from ocorobust.errors import FactorizationError, InfeasibleError

from conftest import random_spd


def projection_problem(target, lb, ub):
    n = len(target)
    eye = np.eye(n)
    return QpProblem(
        hessian=2.0 * eye,
        linear=-2.0 * np.asarray(target, float),
        ineq_normals=np.vstack([eye, -eye]),
        ineq_offsets=np.concatenate([ub, -np.asarray(lb, float)]),
    )


class TestSolveQp:
    def test_unconstrained_projection(self):
        c = np.array([0.3, -1.2, 4.0])
        sol = solve_qp(QpProblem(hessian=2 * np.eye(3), linear=-2 * c))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, c, atol=1e-10)

    def test_clipping(self):
        sol = solve_qp(projection_problem([2.0, 0.0], [-1.0, -1.0], [1.0, 1.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_interior_point_unchanged(self):
        sol = solve_qp(projection_problem([0.3, 0.4], [-1.0, -1.0], [1.0, 1.0]))
        assert np.allclose(sol.x, [0.3, 0.4], atol=1e-10)

    def test_kkt_contract_random(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            h = 2 * random_spd(rng, n)
            q = rng.standard_normal(n)
            m = int(rng.integers(1, 8))
            an = rng.standard_normal((m, n))
            # keep the region nonempty: constraints satisfied at a known point
            x_feas = rng.standard_normal(n) * 0.3
            b = an @ x_feas + rng.uniform(0.05, 1.0, m)
            sol = solve_qp(QpProblem(hessian=h, linear=q, ineq_normals=an, ineq_offsets=b))
            assert sol.status == "optimal"
            assert sol.kkt_residual <= 1e-8
            assert np.all(sol.ineq_multipliers >= -1e-10)

    def test_equality_constraints(self):
        # min ||x - (0,1)||^2 s.t. x1 = 2 x2, box [-2,2]^2
        sol = solve_qp(QpProblem(
            hessian=2 * np.eye(2), linear=-2 * np.array([0.0, 1.0]),
            ineq_normals=np.vstack([np.eye(2), -np.eye(2)]),
            ineq_offsets=np.full(4, 2.0),
            eq_normals=np.array([[1.0, -2.0]]), eq_offsets=np.array([0.0]),
        ))
        # oracle: parametrize x = (2t, t), minimize (2t)^2 + (t-1)^2 -> t = 1/5
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.4, 0.2], atol=1e-9)

    def test_infeasible_detected(self):
        sol = solve_qp(QpProblem(
            hessian=2 * np.eye(1), linear=np.zeros(1),
            ineq_normals=np.array([[1.0], [-1.0]]),
            ineq_offsets=np.array([-1.0, -1.0]),  # x <= -1 and x >= 1
        ))
        assert sol.status == "infeasible"

    def test_inconsistent_equalities(self):
        sol = solve_qp(QpProblem(
            hessian=2 * np.eye(2), linear=np.zeros(2),
            eq_normals=np.array([[1.0, 0.0], [1.0, 0.0]]),
            eq_offsets=np.array([0.0, 1.0]),
        ))
        assert sol.status == "infeasible"

    def test_redundant_equalities_ok(self):
        sol = solve_qp(QpProblem(
            hessian=2 * np.eye(2), linear=-2 * np.array([3.0, 0.0]),
            eq_normals=np.array([[1.0, 0.0], [2.0, 0.0]]),
            eq_offsets=np.array([1.0, 2.0]),
        ))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        h = 2 * random_spd(rng, 4)
        q = rng.standard_normal(4)
        an = rng.standard_normal((6, 4))
        b = np.abs(rng.standard_normal(6)) + 0.1
        p1 = QpProblem(hessian=h, linear=q, ineq_normals=an, ineq_offsets=b)
        p2 = QpProblem(hessian=h.copy(), linear=q.copy(), ineq_normals=an.copy(),
                       ineq_offsets=b.copy())
        s1, s2 = solve_qp(p1), solve_qp(p2)
        assert np.array_equal(s1.x, s2.x)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(22)
        grid = np.linspace(-1.5, 1.5, 151)
        gx, gy = np.meshgrid(grid, grid)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        for _ in range(25):
            h = 2 * random_spd(rng, 2)
            q = rng.standard_normal(2)
            lb = rng.uniform(-1.4, -0.3, 2)
            ub = rng.uniform(0.3, 1.4, 2)
            prob = QpProblem(hessian=h, linear=q,
                             ineq_normals=np.vstack([np.eye(2), -np.eye(2)]),
                             ineq_offsets=np.concatenate([ub, -lb]))
            sol = solve_qp(prob)
            vals = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) + pts @ q
            feas = np.all(pts >= lb - 1e-12, axis=1) & np.all(pts <= ub + 1e-12, axis=1)
            vals[~feas] = np.inf
            best = pts[np.argmin(vals)]
            step = grid[1] - grid[0]
            assert np.linalg.norm(sol.x - best) <= step * np.sqrt(2) + 1e-9

    def test_non_pd_hessian_rejected(self):
        with pytest.raises(FactorizationError):
            QpProblem(hessian=np.array([[0.0]]), linear=np.zeros(1))

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(FactorizationError):
            QpProblem(hessian=np.array([[1.0, 0.5], [0.0, 1.0]]), linear=np.zeros(2))


def project_polytope(x, target, eq=None):
    """Euclidean projection of x onto a polytope (and optional equalities),
    solved as a QP."""
    x = np.asarray(x, float)
    eq_n, eq_b = (None, None) if eq is None else eq
    sol = solve_qp(QpProblem(hessian=2.0 * np.eye(x.size), linear=-2.0 * x,
                             ineq_normals=target.normals, ineq_offsets=target.offsets,
                             eq_normals=eq_n, eq_offsets=eq_b))
    if sol.status != "optimal":
        raise InfeasibleError(f"projection failed with status {sol.status}")
    return sol.x


class TestProjectPolytope:
    def test_inside_returns_same(self):
        p = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
        x = np.array([0.2, -0.7])
        assert np.allclose(project_polytope(x, p), x, atol=1e-10)

    def test_corner_clip(self):
        p = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
        assert np.allclose(project_polytope([3.0, 3.0], p), [1.0, 1.0], atol=1e-9)

    def test_with_equality_matches_line_oracle(self):
        p = HPolytope.box([-2.0, -2.0], [2.0, 2.0])
        y = project_polytope([0.0, 1.0], p, eq=(np.array([[1.0, -2.0]]), np.array([0.0])))
        assert np.allclose(y, [0.4, 0.2], atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        p = HPolytope.box([-1.0, -0.5], [0.8, 1.2])
        for _ in range(50):
            x = rng.standard_normal(2) * 2
            y = project_polytope(x, p)
            z = project_polytope(y, p)
            assert np.linalg.norm(z - y) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(24)
        p = HPolytope.box([-1.0, -0.5], [0.8, 1.2])
        for _ in range(100):
            a = rng.standard_normal(2) * 2
            b = rng.standard_normal(2) * 2
            pa, pb = project_polytope(a, p), project_polytope(b, p)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-8

    def test_infeasible_raises(self):
        p = HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        with pytest.raises(InfeasibleError):
            project_polytope([0.0], p)


class TestEmptiness:
    def test_nonempty(self):
        assert not polytope_is_empty(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))

    def test_empty(self):
        assert polytope_is_empty(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))


class TestCrossSolver:
    def test_matches_cvxopt_on_random_problems(self):
        cvxopt = pytest.importorskip("cvxopt")
        cvxopt.solvers.options["show_progress"] = False
        cvxopt.solvers.options["abstol"] = 1e-10
        cvxopt.solvers.options["reltol"] = 1e-10
        rng = np.random.default_rng(25)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            h = 2 * random_spd(rng, n)
            q = rng.standard_normal(n)
            m = int(rng.integers(1, 10))
            an = rng.standard_normal((m, n))
            x_feas = rng.standard_normal(n) * 0.3
            b = an @ x_feas + rng.uniform(0.05, 1.0, m)
            use_eq = trial % 3 == 0 and n >= 2
            eq_n = rng.standard_normal((1, n)) if use_eq else None
            eq_b = (eq_n @ x_feas) if use_eq else None
            sol = solve_qp(QpProblem(hessian=h, linear=q, ineq_normals=an,
                                     ineq_offsets=b, eq_normals=eq_n,
                                     eq_offsets=eq_b))
            assert sol.status == "optimal"
            kwargs = {}
            if use_eq:
                kwargs = {"A": cvxopt.matrix(eq_n), "b": cvxopt.matrix(eq_b)}
            ref = cvxopt.solvers.qp(cvxopt.matrix(h), cvxopt.matrix(q),
                                    cvxopt.matrix(an), cvxopt.matrix(b), **kwargs)
            assert ref["status"] == "optimal"
            x_ref = np.asarray(ref["x"]).ravel()
            assert np.linalg.norm(sol.x - x_ref) <= 1e-5 * (1 + np.linalg.norm(x_ref))


def oracle_qp(h, q, ineq_n, ineq_b, eq_n, eq_b, tol=1e-9):
    """Exact minimizer by active-set enumeration, or None when infeasible.

    For every subset of the inequality rows, solve the KKT system with those
    rows held as equalities (least squares, so dependent rows are allowed)
    and accept the first exact, primal and dual feasible point. The QP is
    strictly convex with linear constraints, so a feasible QP has such a
    point on some subset, and its x is the unique minimizer.
    """
    n, mi, me = q.size, ineq_b.size, eq_b.size
    for size in range(mi + 1):
        for subset in itertools.combinations(range(mi), size):
            rows = np.vstack([eq_n, ineq_n[list(subset)]])
            rhs = np.concatenate([eq_b, ineq_b[list(subset)]])
            k = rows.shape[0]
            kkt = np.block([[h, rows.T], [rows, np.zeros((k, k))]])
            sol = np.linalg.lstsq(kkt, np.concatenate([-q, rhs]), rcond=None)[0]
            scale = 1.0 + np.abs(rhs).max(initial=0.0) + np.abs(q).max()
            if np.abs(kkt @ sol - np.concatenate([-q, rhs])).max() > tol * scale:
                continue  # inconsistent rows
            x, lam = sol[:n], sol[n + me:]
            if np.all(ineq_n @ x - ineq_b <= tol * scale) and np.all(lam >= -tol * scale):
                return x
    return None


def check_against_oracle(h, q, ineq_n, ineq_b, eq_n, eq_b, tol=1e-8):
    pre = PrefactoredQp(h, ineq_normals=ineq_n, eq_normals=eq_n)
    sol = pre.solve(q, ineq_offsets=ineq_b, eq_offsets=eq_b, tol=tol)
    want = oracle_qp(h, q, ineq_n, ineq_b, eq_n, eq_b)
    assert sol.ineq_multipliers.shape == (ineq_b.size,)
    assert sol.eq_multipliers.shape == (eq_b.size,)
    if want is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert np.allclose(sol.x, want, rtol=0.0, atol=1e-8)
        assert sol.kkt_residual <= tol
    return pre, sol


class TestPrefactoredQpOracle:
    """PrefactoredQp against exact active-set enumeration (n <= 4, <= 6 rows)."""

    def test_random_instances(self):
        rng = np.random.default_rng(30)
        for trial in range(150):
            n = int(rng.integers(1, 5))
            me = int(rng.integers(0, n))
            mi = int(rng.integers(0, 7 - me))
            h = 2 * random_spd(rng, n)
            q = rng.standard_normal(n) * 2
            x_feas = rng.standard_normal(n) * 0.3
            ineq_n = rng.standard_normal((mi, n))
            eq_n = rng.standard_normal((me, n))
            # a few offsets at zero slack put the known point on the boundary
            slack = np.where(rng.random(mi) < 0.3, 0.0, rng.uniform(0.0, 1.0, mi))
            check_against_oracle(h, q, ineq_n, ineq_n @ x_feas + slack, eq_n, eq_n @ x_feas)

    def test_equality_only_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            me = int(rng.integers(0, n + 1))
            h = 2 * random_spd(rng, n)
            eq_n = rng.standard_normal((me, n))
            pre, _ = check_against_oracle(h, rng.standard_normal(n), np.zeros((0, n)),
                                          np.zeros(0), eq_n, rng.standard_normal(me))
            assert pre.closed_form
            # the precomputed operators are reused across right-hand sides
            for _ in range(3):
                q, b = rng.standard_normal(n), rng.standard_normal(me)
                sol = pre.solve(q, eq_offsets=b)
                want = oracle_qp(h, q, np.zeros((0, n)), np.zeros(0), eq_n, b)
                assert sol.status == "optimal"
                assert np.allclose(sol.x, want, rtol=0.0, atol=1e-8)

    def test_duplicate_and_parallel_inequalities(self):
        rng = np.random.default_rng(32)
        for _ in range(80):
            n = int(rng.integers(1, 5))
            h = 2 * random_spd(rng, n)
            base = rng.standard_normal((3, n))
            x_feas = rng.standard_normal(n) * 0.3
            b = base @ x_feas + rng.uniform(0.0, 0.5, 3)
            # exact duplicate, scaled copy (same halfspace), and a parallel
            # row with a looser offset
            ineq_n = np.vstack([base, base[:1], 2.5 * base[1:2], base[2:3]])
            ineq_b = np.concatenate([b, b[:1], 2.5 * b[1:2], b[2:3] + 0.2])
            pre, _ = check_against_oracle(h, rng.standard_normal(n) * 3, ineq_n, ineq_b,
                                          np.zeros((0, n)), np.zeros(0))
            assert not pre.closed_form

    def test_rank_deficient_consistent_equalities(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            h = 2 * random_spd(rng, n)
            row = rng.standard_normal((1, n))
            eq_n = np.vstack([row, -3.0 * row, rng.standard_normal((1, n))])
            x_feas = rng.standard_normal(n)
            mi = int(rng.integers(0, 4))
            ineq_n = rng.standard_normal((mi, n))
            pre, _ = check_against_oracle(h, rng.standard_normal(n), ineq_n,
                                          ineq_n @ x_feas + rng.uniform(0.0, 1.0, mi),
                                          eq_n, eq_n @ x_feas)
            assert not pre.closed_form

    def test_redundant_equalities_match_solve_qp(self):
        h, q = 2 * np.eye(2), -2 * np.array([3.0, 0.0])
        eq_n, eq_b = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0])
        pre, sol = check_against_oracle(h, q, np.zeros((0, 2)), np.zeros(0), eq_n, eq_b)
        assert not pre.closed_form
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_inconsistent_equalities_infeasible(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            row = rng.standard_normal((1, n))
            eq_n = np.vstack([row, 2.0 * row])
            eq_b = np.array([1.0, 2.0 + rng.uniform(0.1, 1.0)])
            pre, sol = check_against_oracle(2 * random_spd(rng, n), rng.standard_normal(n),
                                            np.zeros((0, n)), np.zeros(0), eq_n, eq_b)
            assert not pre.closed_form
            assert sol.status == "infeasible"

    def test_empty_polytope_infeasible(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((2, n))
            # a.x <= -1 and -a.x <= -1 for the first row: an empty slab
            ineq_n = np.vstack([a[:1], -a[:1], a[1:]])
            ineq_b = np.array([-1.0, -1.0, 1.0])
            _, sol = check_against_oracle(2 * random_spd(rng, n), rng.standard_normal(n),
                                          ineq_n, ineq_b, np.zeros((0, n)), np.zeros(0))
            assert sol.status == "infeasible"



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteData:
    """A NaN or inf in the linear term or the equality right-hand side never
    comes back "optimal", on the unconstrained, the closed-form equality and
    the inequality (GI) paths alike."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_linear(self, bad):
        h = 2.0 * np.eye(2)
        cases = [
            PrefactoredQp(h),
            PrefactoredQp(h, eq_normals=np.array([[1.0, 1.0]])),
            PrefactoredQp(h, ineq_normals=np.vstack([np.eye(2), -np.eye(2)])),
        ]
        for pre in cases:
            sol = pre.solve(np.array([bad, 0.0]), ineq_offsets=np.ones(pre.ineq_normals.shape[0]))
            assert sol.status != "optimal"
            assert not sol.kkt_residual <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eq_offsets(self, bad):
        h = 2.0 * np.eye(3)
        pre = PrefactoredQp(h, eq_normals=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        assert pre.closed_form
        sol = pre.solve(np.zeros(3), eq_offsets=np.array([bad, 0.5]))
        assert sol.status != "optimal"
        assert not sol.kkt_residual <= 1e-8

    def test_finite_data_unchanged(self):
        sol = PrefactoredQp(2.0 * np.eye(2)).solve(np.array([-2.0, 0.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)
