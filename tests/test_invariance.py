import numpy as np
import pytest

from ocorobust.convexsets import Zonotope
from ocorobust.errors import InfeasibleError
from ocorobust.invariance import mrpi_outer, tail_set

from conftest import certify_rpi, direction_net, support


class TestMrpiOuter:
    def test_scalar_geometric_series(self):
        # sum of 0.5^i [-1, 1] = [-2, 2]; computed set within epsilon above
        res = mrpi_outer(np.array([[0.5]]), Zonotope.box([1.0]), epsilon=0.01)
        radius = support(res.p, [1.0])
        assert 2.0 - 1e-12 <= radius <= 2.01
        assert res.alpha < 1.0

    def test_nilpotent_single_step(self):
        w = Zonotope.box([1.0, 0.5])
        res = mrpi_outer(np.zeros((2, 2)), w, epsilon=0.01)
        assert res.s == 1
        assert res.alpha == 0.0
        assert np.allclose(res.p.support_batch(np.eye(2)), [1.0, 0.5])

    def test_two_dim_diagonal(self):
        res = mrpi_outer(np.diag([0.5, 0.25]), Zonotope.box([1.0, 1.0]), epsilon=0.01)
        assert support(res.p, [1.0, 0.0]) <= 2.01
        assert support(res.p, [0.0, 1.0]) <= 1.35
        assert support(res.p, [1.0, 0.0]) >= 2.0 - 1e-9
        assert support(res.p, [0.0, 1.0]) >= 4.0 / 3.0 - 1e-9

    def test_result_is_rpi(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            a *= rng.uniform(0.3, 0.9) / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
            w = Zonotope.box(rng.uniform(0.1, 1.0, 2))
            res = mrpi_outer(a, w)
            assert certify_rpi(res.p, a, w, tol=1e-9)

    def test_epsilon_monotonicity(self):
        a = np.diag([0.6, 0.3])
        w = Zonotope.box([1.0, 1.0])
        dirs = direction_net(2)
        small = mrpi_outer(a, w, epsilon=1e-4)
        large = mrpi_outer(a, w, epsilon=0.5)
        assert np.all(small.p.support_batch(dirs)
                      <= large.p.support_batch(dirs) + 1e-9)

    def test_unstable_rejected(self):
        with pytest.raises(InfeasibleError):
            mrpi_outer(np.eye(1), Zonotope.box([1.0]))

    def test_origin_outside_tiny_set_rejected(self):
        # 0 lies outside this W-bar, by far more than the set's own size; the
        # guard is relative to the set's scale, as build_model's check is.
        w = Zonotope.box([1e-12], center=[1e-10])
        with pytest.raises(InfeasibleError, match="origin"):
            mrpi_outer(np.array([[0.5]]), w)

    def test_flat_set_rejected(self):
        with pytest.raises(InfeasibleError, match="full-dimensional"):
            mrpi_outer(0.5 * np.eye(2), Zonotope([0.0, 0.0], [[1.0], [1.0]]))

    def test_s_max_exhausted(self):
        with pytest.raises(InfeasibleError):
            mrpi_outer(np.array([[0.99]]), Zonotope.box([1.0]), epsilon=1e-9, s_max=3)


class TestTailSet:
    def test_scalar_tail(self):
        a = np.array([[0.5]])
        w = Zonotope.box([1.0])
        res = mrpi_outer(a, w, epsilon=0.01)
        tail = tail_set(a, 2, res)
        # sum_{i>=2} 0.5^i = 0.5, outer slack scales by 0.25
        assert 0.5 - 1e-12 <= support(tail, [1.0]) <= 0.51

    def test_nilpotent_tail_is_origin(self):
        w = Zonotope.box([1.0, 1.0])
        res = mrpi_outer(np.zeros((2, 2)), w, epsilon=0.01)
        tail = tail_set(np.zeros((2, 2)), 1, res)
        assert tail.radius_upper() <= 1e-12

    def test_series_decomposition(self):
        # tail + partial sum reproduces the full series in every direction,
        # up to the outer-approximation slack
        a = np.array([[0.7, 0.2], [0.0, 0.5]])
        w = Zonotope.box([0.3, 0.4])
        eps = 1e-6
        res = mrpi_outer(a, w, epsilon=eps)
        mu = 3
        tail = tail_set(a, mu, res)
        partial = Zonotope.point(np.zeros(2))
        p = np.eye(2)
        for _ in range(mu):
            partial = partial.minkowski_sum(w.linear_image(p))
            p = p @ a
        combined = tail.minkowski_sum(partial)
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            assert support(combined, d) == pytest.approx(support(res.p, d), abs=3 * eps)

    def test_tail_inside_full_set(self):
        a = np.diag([0.5, 0.8])
        w = Zonotope.box([1.0, 0.2])
        res = mrpi_outer(a, w)
        tail = tail_set(a, 4, res)
        dirs = direction_net(2)
        assert np.all(tail.support_batch(dirs) <= res.p.support_batch(dirs) + 1e-12)


class TestCertifyRpi:
    def test_too_small_set_fails(self):
        w = Zonotope.box([1.0, 1.0])
        assert not certify_rpi(w, 0.9 * np.eye(2), w)

    def test_enlarged_set_still_rpi(self):
        a = np.diag([0.5, 0.25])
        w = Zonotope.box([1.0, 1.0])
        res = mrpi_outer(a, w, epsilon=0.01)
        assert certify_rpi(res.p.scale(10.0), a, w)

    def test_tolerance_semantics(self):
        # exact fixed point: p = [-2, 2] for a = 0.5, w = [-1, 1]
        p = Zonotope.box([2.0])
        assert certify_rpi(p, np.array([[0.5]]), Zonotope.box([1.0]), tol=1e-12)
