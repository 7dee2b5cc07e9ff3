import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from ocorobust import convexsets
from ocorobust.convexsets import (
    ROW_BLOCK,
    FacetStack,
    HPolytope,
    Zonotope,
    ZonotopeMembership,
    pontryagin_deduct,
    zonotope_in_polytope,
)
from ocorobust.errors import DimensionMismatch

from conftest import box_vertices, lp_support, support, zonotope_contains


def random_zonotope(rng, dim=2, order=3, spread=1.0):
    return Zonotope(rng.uniform(-0.5, 0.5, dim),
                    rng.uniform(-spread, spread, (dim, order)))


def random_box_polytope(rng, dim=2):
    lb = rng.uniform(-2.5, -0.5, dim)
    ub = rng.uniform(0.5, 2.5, dim)
    return HPolytope.box(lb, ub)


def test_import_leaves_scipy_optimize_unloaded():
    # one optimizer and one linear-algebra library: the package runs on numpy
    # alone, so the CLI (which imports every module) loads no scipy module
    import ocorobust

    env = {**os.environ, "PYTHONPATH": str(Path(ocorobust.__file__).parent.parent)}
    code = ("import sys, ocorobust.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_process_pool_unloaded():
    # the package loads no process pool at all: ``run`` takes its seeds one
    # after another in its own process
    import ocorobust

    env = {**os.environ, "PYTHONPATH": str(Path(ocorobust.__file__).parent.parent)}
    code = "import sys, ocorobust.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


@st.composite
def integer_polytopes(draw):
    """{x : normals x <= offsets}, integer data in [-3, 3], n <= 3 and <= 8 rows."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 8))
    entries = st.integers(-3, 3)
    return (draw(arrays(float, (m, n), elements=entries)),
            draw(arrays(float, m, elements=entries)))


class TestSupport:
    def test_unit_box_diagonal_direction(self):
        z = Zonotope.box([1.0, 1.0])
        verts = box_vertices(z)
        d = np.array([1.0, 2.0])
        assert support(z, d) == pytest.approx(3.0)
        assert support(z, d) == pytest.approx((verts @ d).max())

    def test_zero_direction(self):
        z = Zonotope([0.0, 4.0], np.eye(2))
        assert support(z, [0.0, 0.0]) == 0.0

    def test_shifted_box(self):
        z = Zonotope([1.0, 0.0], np.eye(2))
        assert support(z, [1.0, 0.0]) == pytest.approx(2.0)

    def test_homogeneity_and_subadditivity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = random_zonotope(rng)
            d1 = rng.standard_normal(2)
            d2 = rng.standard_normal(2)
            lam = rng.uniform(0.1, 3.0)
            assert support(z, lam * d1) == pytest.approx(lam * support(z, d1))
            assert support(z, d1 + d2) <= support(z, d1) + support(z, d2) + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Zonotope.box([1.0]).support_batch([[1.0, 0.0]])


class TestLinearImage:
    def test_identity(self):
        z = random_zonotope(np.random.default_rng(8))
        out = z.linear_image(np.eye(2))
        assert np.array_equal(out.center, z.center)
        assert np.array_equal(out.generators, z.generators)

    def test_zero_map(self):
        z = random_zonotope(np.random.default_rng(9))
        out = z.linear_image(np.zeros((2, 2)))
        assert np.array_equal(out.center, np.zeros(2))
        assert not np.any(out.generators)

    def test_diagonal_scaling_matches_vertex_map(self):
        z = Zonotope.box([1.0, 1.0])
        m = np.diag([2.0, 1.0])
        out = z.linear_image(m)
        assert support(out, [1.0, 0.0]) == pytest.approx(2.0)
        assert support(out, [0.0, 1.0]) == pytest.approx(1.0)
        mapped = box_vertices(z) @ m.T
        for d in np.random.default_rng(10).standard_normal((20, 2)):
            assert support(out, d) == pytest.approx((mapped @ d).max())


class TestMinkowskiSum:
    def test_neutral_element(self):
        z = random_zonotope(np.random.default_rng(11))
        out = z.minkowski_sum(Zonotope.point([0.0, 0.0]))
        assert np.array_equal(out.center, z.center)
        assert out.order == z.order

    def test_intervals(self):
        s = Zonotope.box([1.0]).minkowski_sum(Zonotope.box([2.0]))
        assert support(s, [1.0]) == pytest.approx(3.0)
        assert support(s, [-1.0]) == pytest.approx(3.0)

    def test_support_additivity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_zonotope(rng), random_zonotope(rng)
            d = rng.standard_normal(2)
            assert support(a.minkowski_sum(b), d) == pytest.approx(support(a, d) + support(b, d))


class TestPontryagin:
    def test_point_deduction_is_zero(self):
        p = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
        t = pontryagin_deduct(p, Zonotope.point([0.0, 0.0]))
        assert isinstance(t, HPolytope)
        assert np.array_equal(t.normals, p.normals)
        assert np.array_equal(t.offsets, p.offsets)

    def test_box_shrink_matches_grid(self):
        p = HPolytope.box([-2.0, -2.0], [2.0, 2.0])
        z = Zonotope.box([0.5, 0.5])
        t = pontryagin_deduct(p, z)
        assert np.allclose(t.offsets, 1.5)
        # grid oracle: x in p (-) z iff every corner of x + z is in p
        grid = np.linspace(-2.2, 2.2, 89)
        corners = box_vertices(z)
        for x0 in grid[::4]:
            for x1 in grid[::4]:
                x = np.array([x0, x1])
                oracle = all(p.contains(x + c) for c in corners)
                assert t.contains(x) == oracle or min(
                    abs(abs(x0) - 1.5), abs(abs(x1) - 1.5)) < 0.06

    def test_overtightening_flagged(self):
        p = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
        t = pontryagin_deduct(p, Zonotope.box([3.0, 3.0]))
        assert np.any(t.offsets < 0)

    def test_difference_plus_sum_contained(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_box_polytope(rng)
            z = random_zonotope(rng, order=2, spread=0.3)
            t = pontryagin_deduct(p, z)
            if np.any(t.offsets < 0):
                continue
            corners = box_vertices(z)
            for _ in range(20):
                x = rng.uniform(-2.5, 2.5, 2)
                if t.contains(x):
                    for c in corners:
                        assert p.contains(x + c, tol=1e-9)


class TestContains:
    def test_origin(self):
        p = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
        assert p.contains(np.zeros(2))

    def test_just_outside_tightened(self):
        t = pontryagin_deduct(HPolytope.box([-2.0, -2.0], [2.0, 2.0]),
                              Zonotope.box([0.5, 0.5]))
        assert not t.contains([1.5001, 0.0], tol=1e-9)
        assert t.contains([1.4999, 0.0], tol=1e-9)

    def test_boundary_with_tolerance(self):
        p = HPolytope.box([-1.0], [1.0])
        assert p.contains([1.0 + 1e-7], tol=1e-6)
        assert not p.contains([1.0 + 1e-5], tol=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = random_box_polytope(rng)
            lb = -np.array([lp_support(p, [-1.0, 0.0]), lp_support(p, [0.0, -1.0])])
            ub = np.array([lp_support(p, [1.0, 0.0]), lp_support(p, [0.0, 1.0])])
            xs = np.linspace(lb[0] - 0.3, ub[0] + 0.3, 41)
            ys = np.linspace(lb[1] - 0.3, ub[1] + 0.3, 41)
            for x in xs[::5]:
                for y in ys[::5]:
                    point = np.array([x, y])
                    oracle = bool(np.all(point >= lb - 1e-12) and np.all(point <= ub + 1e-12))
                    margin = max(np.max(point - ub), np.max(lb - point))
                    if abs(margin) > 1e-9:
                        assert p.contains(point, tol=1e-9) == oracle


class TestZonotopeInPolytope:
    def test_point_inside(self):
        assert zonotope_in_polytope(Zonotope.point([0.0, 0.0]),
                                    HPolytope.box([-1.0, -1.0], [1.0, 1.0]))

    def test_boundary_containment(self):
        assert zonotope_in_polytope(Zonotope.box([1.0, 1.0]),
                                    HPolytope.box([-1.0, -1.0], [1.0, 1.0]))

    def test_slightly_larger_fails(self):
        assert not zonotope_in_polytope(Zonotope.box([1.1, 1.1]),
                                        HPolytope.box([-1.0, -1.0], [1.0, 1.0]))


class TestFacetForm:
    def test_membership_matches_lp_oracle_2d(self):
        rng = np.random.default_rng(15)
        for i in range(26):
            z = random_zonotope(rng, order=4, spread=0.8)
            if i >= 20:
                # parallel columns, which ZonotopeMembership merges before the facet form
                g = z.generators
                z = Zonotope(z.center, np.hstack([g, g[:, :2] * rng.uniform(-2.0, 2.0, 2)]))
                assert z.merge_parallel().order == 4
            for _ in range(30):
                x = rng.uniform(-3, 3, 2)
                inside = zonotope_contains(z, x, tol=1e-9)
                # oracle: does some coefficient vector in [-1,1]^q hit x?
                res = linprog(np.zeros(z.order), A_eq=z.generators,
                              b_eq=x - z.center, bounds=(-1.0, 1.0), method="highs")
                oracle = res.status == 0
                if inside != oracle:
                    # disagreement allowed only in a thin boundary skin:
                    # slightly inflated/deflated sets must flip the answer
                    grown = Zonotope(z.center, z.generators * (1 + 1e-6))
                    shrunk = Zonotope(z.center, z.generators * (1 - 1e-6))
                    assert (zonotope_contains(grown, x, tol=1e-9)
                            or not zonotope_contains(shrunk, x, tol=1e-9))

    def test_3d_box(self):
        z = Zonotope.box([1.0, 2.0, 0.5])
        assert zonotope_contains(z, [0.9, -1.9, 0.4])
        assert not zonotope_contains(z, [1.1, 0.0, 0.0])

    def test_degenerate_point(self):
        z = Zonotope.point([1.0, 2.0])
        assert zonotope_contains(z, [1.0, 2.0])
        assert not zonotope_contains(z, [1.0, 2.1])

    def test_degenerate_segment(self):
        z = Zonotope([0.0, 0.0], np.array([[1.0], [1.0]]))
        assert zonotope_contains(z, [0.5, 0.5])
        assert not zonotope_contains(z, [0.5, 0.6])
        assert not zonotope_contains(z, [1.5, 1.5])

    def test_planar_set_in_3d(self):
        # rank 2 in 3-D: measured in its plane, not as the slab of its normal
        z = Zonotope([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert not zonotope_contains(z, [5.0, 5.0, 0.0])
        assert zonotope_contains(z, [0.5, -0.5, 0.0])
        assert not zonotope_contains(z, [0.5, -0.5, 0.1])
        assert ZonotopeMembership(z).margins([[5.0, 5.0, 0.0]])[0] == pytest.approx(4.0)

    def test_1d_margin_is_signed(self):
        # a full-dimensional 1-D set reads negative inside, like a 2-D box
        pts = np.array([[0.0], [0.05], [0.3]])
        margins = ZonotopeMembership(Zonotope.box([0.1])).margins(pts)
        assert np.allclose(margins, [-0.1, -0.05, 0.2], rtol=0.0, atol=1e-15)
        assert ZonotopeMembership(Zonotope.box([0.1, 0.1])).margins([[0.0, 0.0]])[0] == \
            pytest.approx(-0.1)


class TestScaleInvariance:
    # Every zonotope threshold is relative to the set's own scale: a set
    # smaller than 1 keeps the facets of its scaled copies.
    THIN = np.diag([1e-3, 1e-6, 1e-8])

    def test_thin_small_set_keeps_every_facet(self):
        z = Zonotope(np.zeros(3), self.THIN)
        assert not zonotope_contains(z, [1.0, 0.0, 0.0])
        assert zonotope_contains(z, [0.5e-3, 0.0, 0.0])
        for c in (1e-6, 1.0, 1e6):
            assert z.scale(c).to_halfspaces()[0].shape == (6, 3)

    def test_margin_scales_with_the_set(self):
        rng = np.random.default_rng(71)
        for g in (self.THIN, rng.standard_normal((3, 5)), rng.standard_normal((2, 4))):
            z = Zonotope(rng.standard_normal(len(g)) * 1e-3, g)
            points = rng.standard_normal((20, len(g))) * np.abs(g).max()
            base = ZonotopeMembership(z).margins(points)
            for c in (1e-6, 1.0, 1e6):
                scaled = ZonotopeMembership(z.scale(c)).margins(c * points)
                assert np.allclose(scaled, c * base, rtol=1e-9, atol=0.0)


class TestHPolytopeFlags:
    def test_box_is_compact(self):
        assert HPolytope.box([-1.0, -2.0], [3.0, 4.0]).is_compact()

    def test_halfspace_not_compact(self):
        p = HPolytope([[1.0, 0.0]], [1.0])
        assert not p.is_compact()

    def test_origin_interior(self):
        assert HPolytope.box([-1.0], [1.0]).contains_origin_interior()
        assert not HPolytope.box([0.5], [1.0]).contains_origin_interior()

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HPolytope([[0.0, 0.0]], [1.0])

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(integer_polytopes())
    def test_compact_matches_lp_oracle(self, polytope):
        normals, offsets = polytope
        keep = np.abs(normals).sum(axis=1) > 0
        p = HPolytope(normals[keep], offsets[keep])
        nonempty = linprog(np.zeros(p.dim), A_ub=p.normals, b_ub=p.offsets,
                           bounds=(None, None), method="highs").status == 0
        eye = np.eye(p.dim)
        oracle = nonempty and all(lp_support(p, d) is not None for d in np.vstack([eye, -eye]))
        assert p.is_compact() == oracle


class TestZonotopeInterior:
    def test_centred_box(self):
        assert Zonotope.box([0.1, 0.2]).contains_origin_interior()
        assert Zonotope.box([0.1]).contains_origin_interior()

    def test_flat_set(self):
        assert not Zonotope([0.0, 0.0], [[1.0], [1.0]]).contains_origin_interior()
        assert not Zonotope.point([0.0, 0.0]).contains_origin_interior()

    def test_origin_on_boundary(self):
        assert not Zonotope.box([0.1], center=[0.1]).contains_origin_interior()
        assert not Zonotope.box([0.1, 0.1], center=[0.1, 0.0]).contains_origin_interior()

    def test_off_centre_with_origin_inside(self):
        z = Zonotope([0.05, -0.02], [[0.1, 0.02], [0.0, 0.1]])
        assert z.contains_origin_interior()


class TestMergeParallel:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_columns_merge(self):
        # Column norms of this size underflow to zero unless scaled first.
        merged = Zonotope([0.0], [[2.2e-218, 4.1e-217]]).merge_parallel()
        assert merged.generators.tolist() == [[2.2e-218 + 4.1e-217]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_merge_commutes_with_extreme_scales(self):
        g = np.array([[1.0, -2.0, 0.0, 0.5],
                      [1.0, -2.0, 1.0, 0.5]])
        z = Zonotope([0.3, -0.1], g)
        base = z.merge_parallel().generators
        for factor in (1e-200, 1.0, 1e200):
            merged = z.scale(factor).merge_parallel().generators
            assert merged.shape == base.shape == (2, 2)
            assert np.allclose(merged, factor * base, rtol=1e-15, atol=0.0)

    def test_parallel_columns_merge(self):
        g = np.array([[1.0, -2.0, 0.0, 0.5, 0.0],
                      [1.0, -2.0, 1.0, 0.5, 0.0]])
        merged = Zonotope([0.3, -0.1], g).merge_parallel()
        assert merged.order == 2
        assert np.allclose(np.abs(merged.generators).sum(axis=1), [3.5, 4.5])

    def test_same_support(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            base = rng.standard_normal((3, 4))
            g = np.hstack([base, base[:, :2] * rng.uniform(-2.0, 2.0, 2)])
            z = Zonotope(rng.standard_normal(3), g)
            merged = z.merge_parallel()
            assert merged.order == 4
            dirs = rng.standard_normal((50, 3))
            assert np.allclose(merged.support_batch(dirs), z.support_batch(dirs),
                               rtol=0.0, atol=1e-12)


class TestFacetStack:
    """``FacetStack.within`` against each polytope's own product on its own
    columns, on general (not axis-aligned) normals, over several blocks."""

    def stack_and_points(self):
        rng = np.random.default_rng(7)
        blocks = [(rng.normal(size=(f, w)), rng.uniform(0.5, 2.0, f))
                  for f, w in ((4, 2), (3, 1), (7, 5))]
        # products of 7 x ROW_BLOCK entries, so the 90 points take 3 blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convexsets, "STACK_ENTRIES", ROW_BLOCK * 7)
            stack = FacetStack(blocks)
        assert stack.rows == ROW_BLOCK * 7 // 14 and 2 * stack.rows < 90
        return blocks, stack, rng.normal(size=(90, 8))

    @staticmethod
    def own(blocks, stack, points):
        """Each polytope's own product on each block of ``stack.rows`` rows."""
        parts = np.split(points, range(stack.rows, len(points), stack.rows))
        return np.hstack([[(part[:, c:d] @ n.T - o).max(axis=1)
                           for (n, o), (c, d) in zip(blocks, stack.columns)]
                          for part in parts])

    def test_margins_at_and_one_ulp_around_the_tolerance(self):
        blocks, stack, points = self.stack_and_points()
        own = self.own(blocks, stack, points)
        columns = [points[:, :3], points[:, 3:]]  # a column array may span groups
        for k, row in ((0, 5), (1, 40), (2, 77)):
            for tol in (own[k, row], np.nextafter(own[k, row], -np.inf),
                        np.nextafter(own[k, row], np.inf)):
                assert np.array_equal(stack.within(columns, tol), own <= tol)

    def test_margins_at_and_one_ulp_around_zero(self):
        blocks, stack, points = self.stack_and_points()
        normals, offsets = blocks[1]
        # group 1 is one column: put rows on a facet of it (margin 0 there)
        # and one ulp inside and outside
        edge = offsets[0] / normals[0, 0]
        points[10:13, 2] = [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        own = self.own(blocks, stack, points)
        assert (own[1, 10:13] == 0.0).any()
        for tol in (0.0, -5e-324, 5e-324):
            assert np.array_equal(stack.within([points], tol), own <= tol)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_fails_only_its_polytope(self, value):
        blocks, stack, points = self.stack_and_points()
        clean = stack.within([points], 0.5)
        for k, (c, d) in enumerate(stack.columns):
            hit = points.copy()
            hit[3 + k, c] = value
            got = stack.within([hit], 0.5)
            want = clean.copy()
            want[k, 3 + k] = False
            assert np.array_equal(got, want), k
