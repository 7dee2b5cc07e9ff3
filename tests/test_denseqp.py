import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocorobust import denseqp
from ocorobust.convexsets import HPolytope
from ocorobust.denseqp import PrefactoredQp, polytope_is_empty
from ocorobust.errors import FactorizationError, InfeasibleError

from conftest import random_spd


def solve(h, q, ineq_n=None, ineq_b=None, eq_n=None, eq_b=None):
    """One solve of a freshly built ``PrefactoredQp``."""
    return PrefactoredQp(h, ineq_normals=ineq_n, eq_normals=eq_n).solve(
        q, ineq_offsets=ineq_b, eq_offsets=eq_b)


def solve_projection(target, lb, ub):
    n = len(target)
    eye = np.eye(n)
    return solve(2.0 * eye, -2.0 * np.asarray(target, float), np.vstack([eye, -eye]),
                 np.concatenate([ub, -np.asarray(lb, float)]))


class TestSolveQp:
    def test_unconstrained_projection(self):
        c = np.array([0.3, -1.2, 4.0])
        sol = solve(2 * np.eye(3), -2 * c)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, c, atol=1e-10)

    def test_clipping(self):
        sol = solve_projection([2.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_interior_point_unchanged(self):
        sol = solve_projection([0.3, 0.4], [-1.0, -1.0], [1.0, 1.0])
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
            sol = solve(h, q, an, b)
            assert sol.status == "optimal"
            assert sol.kkt_residual <= 1e-8
            assert np.all(sol.ineq_multipliers >= -1e-10)

    def test_equality_constraints(self):
        # min ||x - (0,1)||^2 s.t. x1 = 2 x2, box [-2,2]^2
        sol = solve(2 * np.eye(2), -2 * np.array([0.0, 1.0]),
                    np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 2.0),
                    np.array([[1.0, -2.0]]), np.array([0.0]))
        # oracle: parametrize x = (2t, t), minimize (2t)^2 + (t-1)^2 -> t = 1/5
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.4, 0.2], atol=1e-9)

    def test_infeasible_detected(self):
        sol = solve(2 * np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]),
                    np.array([-1.0, -1.0]))  # x <= -1 and x >= 1
        assert sol.status == "infeasible"

    def test_inconsistent_equalities(self):
        sol = solve(2 * np.eye(2), np.zeros(2),
                    eq_n=np.array([[1.0, 0.0], [1.0, 0.0]]), eq_b=np.array([0.0, 1.0]))
        assert sol.status == "infeasible"

    def test_redundant_equalities_ok(self):
        sol = solve(2 * np.eye(2), -2 * np.array([3.0, 0.0]),
                    eq_n=np.array([[1.0, 0.0], [2.0, 0.0]]), eq_b=np.array([1.0, 2.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        h = 2 * random_spd(rng, 4)
        q = rng.standard_normal(4)
        an = rng.standard_normal((6, 4))
        b = np.abs(rng.standard_normal(6)) + 0.1
        s1 = solve(h, q, an, b)
        s2 = solve(h.copy(), q.copy(), an.copy(), b.copy())
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
            sol = solve(h, q, np.vstack([np.eye(2), -np.eye(2)]), np.concatenate([ub, -lb]))
            vals = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) + pts @ q
            feas = np.all(pts >= lb - 1e-12, axis=1) & np.all(pts <= ub + 1e-12, axis=1)
            vals[~feas] = np.inf
            best = pts[np.argmin(vals)]
            step = grid[1] - grid[0]
            assert np.linalg.norm(sol.x - best) <= step * np.sqrt(2) + 1e-9

    def test_non_pd_hessian_rejected(self):
        with pytest.raises(FactorizationError):
            PrefactoredQp(np.array([[0.0]]))

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(FactorizationError):
            PrefactoredQp(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            PrefactoredQp(np.eye(2), ineq_normals=np.eye(2), tol=tol)

    def test_solver_keeps_its_tol(self):
        # the default, or the one given, with GI's stopping threshold 0.1 tol
        assert PrefactoredQp(np.eye(1)).tol == denseqp.DEFAULT_TOL == 1e-8
        pre = PrefactoredQp(np.eye(1), tol=1e-6)
        assert (pre.tol, pre.stop_tol) == (1e-6, 0.1 * 1e-6)

    @pytest.mark.parametrize("lam", [None, np.zeros(4)])
    @pytest.mark.parametrize("eq", [False, True])
    def test_rule_room(self, eq, lam):
        # A point the rule keeps at room 0 (residual 3e-9, the stationarity
        # term) stays kept while residual + room is within tol and is
        # rejected beyond it; the residual it reports is the same throughout.
        box = np.vstack([np.eye(2), -np.eye(2)])
        pre = PrefactoredQp(2.0 * np.eye(2), ineq_normals=box,
                            eq_normals=np.array([[1.0, 1.0]]) if eq else None)
        grad, viol = np.array([3e-9, 0.0]), np.full(4, -0.75)
        eq_res = np.array([2e-9]) if eq else None
        seen = [pre.kkt_status(grad, viol, lam, eq_res, room)
                for room in (0.0, 0.5 * pre.tol, 0.8 * pre.tol)]
        assert [status for _, status in seen] == ["optimal", "optimal", "max_iter"]
        assert [res for res, _ in seen] == [3e-9] * 3


def project_polytope(x, target, eq=None):
    """Euclidean projection of x onto a polytope (and optional equalities),
    solved as a QP."""
    x = np.asarray(x, float)
    eq_n, eq_b = (None, None) if eq is None else eq
    sol = solve(2.0 * np.eye(x.size), -2.0 * x, target.normals, target.offsets, eq_n, eq_b)
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
            sol = solve(h, q, an, b, eq_n, eq_b)
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


def cold_gi(pre, q, ineq_b, eq_b):
    """(x, status) of the GI iteration run from scratch on ``pre``'s data."""
    x, _, _, _, status = denseqp._gi_core(pre, -(pre.hinv @ q),
                                          np.concatenate([eq_b, -ineq_b]))
    return x, status


def solve_tracing_gi(pre, q, ineq_b=None, eq_b=None):
    """``pre.solve`` and whether it ran the GI iteration (False: the
    equality-constrained guess was kept)."""
    with mock.patch.object(denseqp, "_gi_core", wraps=denseqp._gi_core) as gi:
        sol = pre.solve(q, ineq_offsets=ineq_b, eq_offsets=eq_b)
    return sol, gi.called


def check_against_oracle(h, q, ineq_n, ineq_b, eq_n, eq_b, tol=1e-8):
    """Check one solve against the enumeration oracle and against cold GI;
    returns the solver, the solution and whether GI ran."""
    pre = PrefactoredQp(h, ineq_normals=ineq_n, eq_normals=eq_n, tol=tol)
    sol, ran_gi = solve_tracing_gi(pre, q, ineq_b, eq_b)
    want = oracle_qp(h, q, ineq_n, ineq_b, eq_n, eq_b)
    assert sol.ineq_multipliers.shape == (ineq_b.size,)
    assert sol.eq_multipliers.shape == (eq_b.size,)
    if want is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert np.allclose(sol.x, want, rtol=0.0, atol=1e-8)
        assert sol.kkt_residual <= tol
    x_gi, status_gi = cold_gi(pre, q, ineq_b, eq_b)
    assert sol.status == status_gi
    if status_gi == "optimal":
        assert np.allclose(sol.x, x_gi, rtol=0.0, atol=1e-8)
    # Without a precomputed guess every solve is GI; with one, GI runs only
    # when the guess is rejected.
    assert ran_gi or pre.eq_optimum
    return pre, sol, ran_gi


# Entries on a coarse grid, so drawn instances hit exact degeneracies
# (zero, duplicate and parallel rows, boundary points) as well as generic ones.
GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def qp_instances(draw):
    """A strictly convex QP with n <= 4 and <= 6 rows, feasible at a known point."""
    n = draw(st.integers(1, 4))
    me = draw(st.integers(0, n - 1))
    mi = draw(st.integers(0, 6 - me))
    root = draw(arrays(float, (n, n), elements=GRID))
    x_feas = draw(arrays(float, n, elements=GRID))
    ineq_n = draw(arrays(float, (mi, n), elements=GRID))
    eq_n = draw(arrays(float, (me, n), elements=GRID))
    slack = draw(arrays(float, mi, elements=st.sampled_from([0.0, 0.0, 0.25, 1.0])))
    q = draw(arrays(float, n, elements=GRID))
    h = 2.0 * (root.T @ root + np.eye(n))
    return h, 2.0 * q, ineq_n, ineq_n @ x_feas + slack, eq_n, eq_n @ x_feas


class TestPrefactoredQpOracle:
    """PrefactoredQp against exact active-set enumeration (n <= 4, <= 6 rows)."""

    def test_random_instances(self):
        rng = np.random.default_rng(30)
        kept = rejected = 0
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
            pre, _, ran_gi = check_against_oracle(h, q, ineq_n, ineq_n @ x_feas + slack,
                                                  eq_n, eq_n @ x_feas)
            kept += pre.eq_optimum and not ran_gi
            rejected += pre.eq_optimum and ran_gi
        # both branches of the guess are exercised: kept, and rejected for GI
        assert kept > 0 and rejected > 0

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(qp_instances())
    def test_drawn_instances(self, instance):
        check_against_oracle(*instance)

    def test_equality_only_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            me = int(rng.integers(0, n + 1))
            h = 2 * random_spd(rng, n)
            eq_n = rng.standard_normal((me, n))
            pre, _, ran_gi = check_against_oracle(h, rng.standard_normal(n),
                                                  np.zeros((0, n)), np.zeros(0), eq_n,
                                                  rng.standard_normal(me))
            assert pre.eq_optimum and not ran_gi
            # the precomputed operators are reused across right-hand sides
            for _ in range(3):
                q, b = rng.standard_normal(n), rng.standard_normal(me)
                sol, ran_gi = solve_tracing_gi(pre, q, eq_b=b)
                want = oracle_qp(h, q, np.zeros((0, n)), np.zeros(0), eq_n, b)
                assert sol.status == "optimal" and not ran_gi
                assert np.allclose(sol.x, want, rtol=0.0, atol=1e-8)

    def test_inequality_only_guess_is_gi_start(self):
        # With no equalities the kept guess is bit for bit what cold GI returns.
        rng = np.random.default_rng(36)
        kept = 0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            h = 2 * random_spd(rng, n)
            ineq_n = rng.standard_normal((3, n))
            q = rng.standard_normal(n)
            ineq_b = rng.uniform(0.0, 2.0, 3)
            pre = PrefactoredQp(h, ineq_normals=ineq_n)
            sol, ran_gi = solve_tracing_gi(pre, q, ineq_b)
            x_gi, status_gi = cold_gi(pre, q, ineq_b, np.zeros(0))
            if not ran_gi and not sol.ineq_multipliers.any():
                kept += 1
                assert np.array_equal(sol.x, -(pre.hinv @ q))
                assert np.array_equal(sol.x, x_gi) and status_gi == "optimal"
        assert kept > 0

    def test_guess_failing_the_kkt_check_runs_gi(self):
        # No row binds, so the guess passes the row test; a solver whose tol
        # is below the rounding of its KKT residual rejects it, and GI
        # answers instead.
        data = (2.0 * np.eye(2), np.vstack([np.eye(2), -np.eye(2)]), np.array([[1.0, 1.0]]))
        pre = PrefactoredQp(*data)
        q, ineq_b, eq_b = np.array([-0.3, 0.1]), np.ones(4), np.array([0.2])
        sol, ran_gi = solve_tracing_gi(pre, q, ineq_b, eq_b)
        assert sol.status == "optimal" and not ran_gi
        strict, ran_gi = solve_tracing_gi(PrefactoredQp(*data, tol=1e-300), q, ineq_b, eq_b)
        assert ran_gi and strict.status == "max_iter"
        assert np.allclose(strict.x, sol.x, rtol=0.0, atol=1e-12)

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
            pre, sol, ran_gi = check_against_oracle(h, rng.standard_normal(n) * 3, ineq_n,
                                                    ineq_b, np.zeros((0, n)), np.zeros(0))
            # the unconstrained optimum is kept exactly when no row binds;
            # a binding row is GI's
            assert pre.eq_optimum
            binding = np.count_nonzero(sol.ineq_multipliers > 0)
            assert ran_gi == (binding > 0)

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
            pre, _, ran_gi = check_against_oracle(h, rng.standard_normal(n), ineq_n,
                                                  ineq_n @ x_feas + rng.uniform(0.0, 1.0, mi),
                                                  eq_n, eq_n @ x_feas)
            assert not pre.eq_optimum and ran_gi

    def test_redundant_equalities_take_the_gi_path(self):
        h, q = 2 * np.eye(2), -2 * np.array([3.0, 0.0])
        eq_n, eq_b = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0])
        pre, sol, ran_gi = check_against_oracle(h, q, np.zeros((0, 2)), np.zeros(0), eq_n,
                                                eq_b)
        assert not pre.eq_optimum and ran_gi
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_inconsistent_equalities_infeasible(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            row = rng.standard_normal((1, n))
            eq_n = np.vstack([row, 2.0 * row])
            eq_b = np.array([1.0, 2.0 + rng.uniform(0.1, 1.0)])
            pre, sol, ran_gi = check_against_oracle(2 * random_spd(rng, n),
                                                    rng.standard_normal(n), np.zeros((0, n)),
                                                    np.zeros(0), eq_n, eq_b)
            assert not pre.eq_optimum and ran_gi
            assert sol.status == "infeasible"

    def test_empty_polytope_infeasible(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((2, n))
            # a.x <= -1 and -a.x <= -1 for the first row: an empty slab
            ineq_n = np.vstack([a[:1], -a[:1], a[1:]])
            ineq_b = np.array([-1.0, -1.0, 1.0])
            _, sol, ran_gi = check_against_oracle(2 * random_spd(rng, n),
                                                  rng.standard_normal(n), ineq_n, ineq_b,
                                                  np.zeros((0, n)), np.zeros(0))
            assert sol.status == "infeasible" and ran_gi

    # GI's first iteration from a rejected guess (inequality rows only):
    # ``first_row`` and ``row_multipliers``, the rule the controller's face
    # rows apply. The reference is GI itself, stopped after one iteration:
    # it ends "optimal" exactly when one added row settles the QP. ``solve``
    # runs GI in full from a rejected guess.

    @staticmethod
    def one_iteration_gi(pre, q, ineq_b):
        return denseqp._gi_core(pre, -(pre.hinv @ q), -ineq_b, 1)

    @classmethod
    def one_iteration_kept(cls, pre, q, ineq_b):
        """(kept, active) of one iteration of GI from the guess: kept when
        it ends "optimal" and its point, with its multipliers, passes the
        solver's KKT check (``_assemble``, as ``_cold`` checks GI's answer)."""
        x1, active, mult, _, status = cls.one_iteration_gi(pre, q, ineq_b)
        if status != "optimal":
            return False, active
        lam = np.zeros(ineq_b.size)
        lam[active] = mult
        point = pre._assemble(pre.stacked @ x1, q, ineq_b, pre.no_eq, x1, lam, pre.no_eq,
                              "optimal")
        return point.status == "optimal", active

    @staticmethod
    def first_iteration(pre, q, ineq_b):
        """``first_row`` and ``row_multipliers`` from the guess x = -H^-1 q,
        on the solver's own products: (j, point, multipliers), multipliers
        None when another row fails GI's stopping test; None when
        ``first_row`` takes no step."""
        x = -(pre.hinv @ q)
        first = pre.first_row(pre.ineq_normals @ x - ineq_b)
        if first is None:
            return None
        j, step = first
        x1 = x + step * pre.hinv_cn[:, j]
        return j, x1, pre.row_multipliers(pre.ineq_normals @ x1 - ineq_b, j, step)

    @staticmethod
    def assert_close(got, want, rel=1e-12):
        assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_drawn_one_active_row_solves_match_one_gi_iteration(self, data):
        h, q, ineq_n, ineq_b, _, _ = data.draw(qp_instances())
        n = q.size
        q = 3.0 * q  # pushes the unconstrained optimum out more often
        pre, sol, _ = check_against_oracle(h, q, ineq_n, ineq_b, np.zeros((0, n)), np.zeros(0))
        if sol.status != "optimal" or not sol.ineq_multipliers.any():
            return
        x1, active, mult, _, status = self.one_iteration_gi(pre, q, ineq_b)
        if status == "optimal":
            # one active row: the solution is GI's first iteration
            assert len(active) == 1
            self.assert_close(sol.x, x1)
            lam = np.zeros(ineq_b.size)
            lam[active[0]] = mult[0]
            self.assert_close(sol.ineq_multipliers, lam)

    def test_one_active_row_solves_match_one_gi_iteration(self):
        # Random boxes and slabs with the unconstrained optimum outside; both
        # outcomes are exercised.
        rng = np.random.default_rng(37)
        stepped = handed_over = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            h = 2 * random_spd(rng, n)
            ineq_n = rng.standard_normal((int(rng.integers(1, 7)), n))
            ineq_b = rng.uniform(0.0, 1.0, ineq_n.shape[0])
            q = rng.standard_normal(n) * 4
            pre, sol, _ = check_against_oracle(h, q, ineq_n, ineq_b, np.zeros((0, n)),
                                               np.zeros(0))
            x1, active, mult, _, status = self.one_iteration_gi(pre, q, ineq_b)
            if not sol.ineq_multipliers.any():
                continue
            if status == "optimal":
                stepped += 1
                assert sol.status == "optimal"
                self.assert_close(sol.x, x1)
                assert sol.ineq_multipliers[active[0]] == pytest.approx(mult[0], rel=1e-12)
                assert np.count_nonzero(sol.ineq_multipliers) == 1
            else:
                handed_over += 1
        assert stepped > 10 and handed_over > 10

    def test_first_row_ties_take_the_lowest_index(self):
        # Rows 1 and 3 are the same halfspace, equally violated: GI's argmin
        # and ``first_row`` both take row 1, where one iteration of GI
        # stops; the solve is GI's.
        pre = PrefactoredQp(2.0 * np.eye(2), ineq_normals=np.array(
            [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
        q, ineq_b = np.array([-4.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0])
        x_gi, active, mult, _, status = self.one_iteration_gi(pre, q, ineq_b)
        assert status == "optimal" and active == [1]
        j, x1, lam = self.first_iteration(pre, q, ineq_b)
        assert j == 1 and np.array_equal(lam, [0.0, mult[0], 0.0, 0.0])
        assert np.array_equal(x1, x_gi) and np.allclose(x1, [1.0, 0.0], rtol=0.0, atol=1e-15)
        sol, ran_gi = solve_tracing_gi(pre, q, ineq_b)
        x_full, active, mult, _, status = denseqp._gi_core(pre, -(pre.hinv @ q), -ineq_b)
        assert ran_gi and status == "optimal" and active == [1]
        assert np.array_equal(sol.x, x_full)
        assert np.array_equal(sol.ineq_multipliers, [0.0, mult[0], 0.0, 0.0])

    def test_two_active_rows_hand_over_to_gi(self):
        # The optimum is the box corner: the point of GI's first iteration
        # violates the other row, so ``row_multipliers`` declines it where
        # one iteration of GI goes on, and the solve is GI's in full, as the
        # oracle's.
        box = np.vstack([np.eye(2), -np.eye(2)])
        q, ineq_b = np.array([-4.0, -3.0]), np.ones(4)
        pre, sol, ran_gi = check_against_oracle(2.0 * np.eye(2), q, box, ineq_b,
                                                np.zeros((0, 2)), np.zeros(0))
        assert ran_gi and np.count_nonzero(sol.ineq_multipliers) == 2
        _, active, _, _, status = self.one_iteration_gi(pre, q, ineq_b)
        j, _, lam = self.first_iteration(pre, q, ineq_b)
        assert status == "max_iter" and active == [j] == [0] and lam is None
        x_full, active, mult, _, status = denseqp._gi_core(pre, -(pre.hinv @ q), -ineq_b)
        assert status == "optimal" and sorted(active) == [0, 1]
        assert np.array_equal(sol.x, x_full)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solve_non_finite_offsets_match_cold_gi(self, bad):
        # Every row in turn, with row 0 violated by the guess: the solve
        # ends "non_finite" as cold GI plus `_assemble` do.
        box = np.vstack([np.eye(2), -np.eye(2)])
        pre = PrefactoredQp(2.0 * np.eye(2), ineq_normals=box)
        q = np.array([-4.0, 0.5])
        x = -(pre.hinv @ q)
        for row in range(4):
            ineq_b = np.ones(4)
            ineq_b[row] = bad
            # the reference: cold GI, its non-optimal exit named "non_finite",
            # then `_assemble`
            x_gi, active, mult, _, status = denseqp._gi_core(pre, x, -ineq_b)
            lam = np.zeros(4)
            lam[active] = mult
            ref = pre._assemble(pre.stacked @ x_gi, q, ineq_b, np.zeros(0), x_gi, lam,
                                np.zeros(0), "optimal" if status == "optimal" else "non_finite")
            assert pre.solve(q, ineq_offsets=ineq_b).status == ref.status == "non_finite"

    # The face rule: the controller's rows of the guess (its stationarity
    # rows and row residuals) moved along face j, the rows' change per unit
    # of row j's multiplier, by the step ``first_row`` takes, then decided by
    # ``row_multipliers`` and ``kkt_status`` with room for the rows' rounding.

    @staticmethod
    def face_rule(pre, q, ineq_b):
        """(j, status, near) of the face rule from the guess x = -H^-1 q:
        status None when another row fails GI's stopping test, and near
        whether the rule's point lies within its room of a bound, where it
        may decide otherwise than one iteration of GI; (None, None, False)
        when ``first_row`` takes no step."""
        n = q.size
        x = -(pre.hinv @ q)
        prod = pre.stacked @ x
        grad, viol = prod[:n] + q, prod[n:] - ineq_b
        first = pre.first_row(viol)
        if first is None:
            return None, None, False
        j, lam = first
        d = pre.hinv_cn[:, j]
        grad = grad + lam * (pre.hessian @ d + pre.ineq_normals[j])
        viol = viol + lam * (pre.ineq_normals @ d)
        # per row, the terms' absolute sums, with n + 4 roundings each
        x_abs = np.abs(x) + lam * np.abs(d)
        scale = max(float((np.abs(pre.hessian) @ x_abs + np.abs(q)
                           + lam * np.abs(pre.ineq_normals[j])).max()),
                    float((np.abs(pre.ineq_normals) @ x_abs + np.abs(ineq_b)).max()))
        room = (n + 4) * np.finfo(float).eps * np.sqrt(n) * scale * max(1.0, lam)
        others = np.delete(viol, j)
        near = bool(others.size) and abs(float(others.max()) - pre.stop_tol) <= room
        lam_vec = pre.row_multipliers(viol, j, lam)
        if lam_vec is None:
            return j, None, near
        res, status = pre.kkt_status(grad, viol, lam_vec, room=room)
        return j, status, near or abs(res - pre.tol) <= 2.0 * room

    def test_drawn_face_rule_matches_one_gi_iteration(self):
        # Drawn inequality-only QPs whose guess fails: the face rule takes
        # the row one iteration of GI takes (the lowest index on ties), and
        # keeps the points that iteration keeps, except within the room.
        outcomes = Counter()

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(qp_instances())
        def check(instance):
            h, q, ineq_n, ineq_b, _, _ = instance
            pre = PrefactoredQp(h, ineq_normals=ineq_n)
            q = 3.0 * q  # pushes the unconstrained optimum out more often
            x = -(pre.hinv @ q)
            if not ineq_b.size or not np.max(pre.ineq_normals @ x - ineq_b) > pre.stop_tol:
                return
            j, status, near = self.face_rule(pre, q, ineq_b)
            kept, active = self.one_iteration_kept(pre, q, ineq_b)
            assert j == (active[0] if active else None)
            if (status == "optimal") != kept:
                assert near
            outcomes[kept] += 1

        check()
        assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_face_rule_non_finite_offsets(self, bad):
        # As ``test_solve_non_finite_offsets_match_cold_gi``: every row in turn, with
        # row 0 violated by the guess; neither the face rule nor one
        # iteration of GI keeps a point.
        box = np.vstack([np.eye(2), -np.eye(2)])
        pre = PrefactoredQp(2.0 * np.eye(2), ineq_normals=box)
        q = np.array([-4.0, 0.5])
        for row in range(4):
            ineq_b = np.ones(4)
            ineq_b[row] = bad
            _, status, _ = self.face_rule(pre, q, ineq_b)
            assert status != "optimal"
            assert not self.one_iteration_kept(pre, q, ineq_b)[0]


@st.composite
def polytopes(draw):
    """{x : normals x <= offsets}, n <= 4 and <= 6 rows, empty or not."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    return draw(arrays(float, (m, n), elements=GRID)), draw(arrays(float, m, elements=GRID))


class TestEmptiness:
    def test_nonempty(self):
        assert not polytope_is_empty(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))

    def test_empty(self):
        assert polytope_is_empty(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(polytopes())
    def test_drawn_polytopes_match_oracle(self, polytope):
        normals, offsets = polytope
        n = normals.shape[1]
        nearest = oracle_qp(2.0 * np.eye(n), np.zeros(n), normals, offsets,
                            np.zeros((0, n)), np.zeros(0))
        assert polytope_is_empty(normals, offsets) == (nearest is None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteData:
    """A NaN or inf in the linear term or a right-hand side gets the status
    "non_finite", whether the equality-constrained guess or GI answers: on
    the unconstrained, equality-only, inequality-only and mixed solvers."""

    H = 2.0 * np.eye(2)
    BOX = np.vstack([np.eye(2), -np.eye(2)])
    EQ = np.array([[1.0, 1.0]])

    def solvers(self):
        return [PrefactoredQp(self.H), PrefactoredQp(self.H, eq_normals=self.EQ),
                PrefactoredQp(self.H, ineq_normals=self.BOX),
                PrefactoredQp(self.H, ineq_normals=self.BOX, eq_normals=self.EQ)]

    @staticmethod
    def assert_non_finite(sol):
        assert sol.status == "non_finite"
        assert not sol.kkt_residual <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_linear(self, bad):
        for pre in self.solvers():
            self.assert_non_finite(pre.solve(
                np.array([bad, 0.0]), ineq_offsets=np.ones(pre.ineq_normals.shape[0]),
                eq_offsets=np.zeros(pre.meq)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eq_offsets(self, bad):
        pre = PrefactoredQp(2.0 * np.eye(3), eq_normals=np.array([[1.0, 0.0, 1.0],
                                                                  [0.0, 1.0, 0.0]]))
        assert pre.eq_optimum
        self.assert_non_finite(pre.solve(np.zeros(3), eq_offsets=np.array([bad, 0.5])))
        mixed = PrefactoredQp(self.H, ineq_normals=self.BOX, eq_normals=self.EQ)
        self.assert_non_finite(mixed.solve(np.zeros(2), ineq_offsets=np.ones(4),
                                           eq_offsets=np.array([bad])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ineq_offsets(self, bad):
        for pre in self.solvers()[2:]:
            for row in range(4):
                offsets = np.ones(4)
                offsets[row] = bad
                self.assert_non_finite(pre.solve(np.zeros(2), ineq_offsets=offsets,
                                                 eq_offsets=np.zeros(pre.meq)))

    @staticmethod
    def assert_guess_matches_full_form(pre, q, ineq_b, eq_b, x, nu):
        # The fast path's guess has the status and the KKT residual of the
        # full form with lam = 0, bit for bit or both NaN; it is None only
        # when a row fails GI's stopping test, and "optimal" only when none
        # does.
        prod, tol = pre.stacked @ x, pre.tol
        guess = pre._assemble(prod, q, ineq_b, eq_b, x, None, nu, "optimal")
        full = pre._assemble(prod, q, ineq_b, eq_b, x, np.zeros(len(ineq_b)), nu, "optimal")
        failing = (prod[len(x):len(x) + len(ineq_b)] - ineq_b > 0.1 * tol).any()
        if guess is None:
            assert failing
            return
        assert guess.status == full.status
        assert np.array_equal([guess.kkt_residual], [full.kkt_residual], equal_nan=True)
        assert np.array_equal(guess.ineq_multipliers, np.zeros(len(ineq_b)))
        assert guess.status != "optimal" or not failing

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_zero_multiplier_residual_matches_full_form(self, data):
        # On finite data and with one NaN or +-inf in q, x or a right-hand side.
        h, q, ineq_n, ineq_b, eq_n, eq_b = data.draw(qp_instances())
        pre = PrefactoredQp(h, ineq_normals=ineq_n, eq_normals=eq_n)
        x = data.draw(arrays(float, len(q), elements=GRID))
        nu = data.draw(arrays(float, pre.meq, elements=GRID))
        bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
        if bad is not None:
            vec = data.draw(st.sampled_from([v for v in (q, x, ineq_b, eq_b) if v.size]))
            vec[data.draw(st.integers(0, vec.size - 1))] = bad
        self.assert_guess_matches_full_form(pre, q, ineq_b, eq_b, x, nu)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["ineq", "eq"])
    def test_non_finite_offset_guess_matches_full_form(self, bad, which):
        # Every row of both offset vectors in turn, at the equality-constrained
        # optimum the fast path computes and at a point inside the box.
        pre = PrefactoredQp(self.H, ineq_normals=self.BOX, eq_normals=self.EQ)
        q = np.array([-1.0, 0.5])
        for row in range(4 if which == "ineq" else 1):
            ineq_b, eq_b = np.ones(4), np.array([0.5])
            (ineq_b if which == "ineq" else eq_b)[row] = bad
            sol = pre.kkt_q @ q + pre.kkt_b @ eq_b
            for x, nu in ((sol[:2], sol[2:]), (np.array([0.25, 0.25]), np.array([0.5]))):
                self.assert_guess_matches_full_form(pre, q, ineq_b, eq_b, x, nu)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_guess_rows_keep_what_solve_keeps(self, data):
        # The batched guess keeps a row exactly when the single solve's guess
        # is "optimal", with one NaN or +-inf in a linear term or an offset.
        h, q, ineq_n, ineq_b, _, _ = data.draw(qp_instances())
        if not ineq_b.size:
            return
        pre = PrefactoredQp(h, ineq_normals=ineq_n)
        rows = data.draw(st.integers(1, 4))
        linears = np.vstack([q] + [data.draw(arrays(float, q.size, elements=GRID))
                                   for _ in range(rows - 1)])
        bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
        if bad is not None:
            vec = data.draw(st.sampled_from([linears[data.draw(st.integers(0, rows - 1))],
                                             ineq_b]))
            vec[data.draw(st.integers(0, vec.size - 1))] = bad
        x, kept = pre.guess_rows(linears, ineq_b)
        for i, linear in enumerate(linears):
            single = -(pre.hinv @ linear)
            assert np.array_equal(x[i], single, equal_nan=True) or np.allclose(
                x[i], single, rtol=1e-12, atol=0.0)
            guess = pre._assemble(pre.stacked @ single, linear, ineq_b, np.zeros(0),
                                  single, None, np.zeros(0), "optimal")
            assert kept[i] == (guess is not None and guess.status == "optimal")

    def test_finite_data_unchanged(self):
        sol = PrefactoredQp(2.0 * np.eye(2)).solve(np.array([-2.0, 0.0]))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)
