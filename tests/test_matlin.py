import numpy as np
import pytest

from ocorobust.errors import FactorizationError
from ocorobust.matlin import (
    numeric_rank,
    power_norm_certificate,
    spd_inverse,
    spectral_norm_upper,
    symmetric_eig_bounds,
)

from conftest import random_spd


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_proportional_rows(self):
        assert numeric_rank([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((3, 2))) == 0

    @pytest.mark.parametrize("small, rank", [(1e-9, 2), (1e-11, 1)])
    def test_relative_threshold(self, small, rank):
        # default tol 1e-10 relative to the largest singular value
        assert numeric_rank(np.diag([1.0, small])) == rank

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
            r = numeric_rank(a)
            perm = rng.permutation(5)
            assert numeric_rank(a[perm]) == r


class TestSpdInverse:
    def test_vs_inv(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = random_spd(rng, int(rng.integers(1, 6)))
            hinv = spd_inverse(h)
            assert np.array_equal(hinv, hinv.T)
            assert np.allclose(hinv @ h, np.eye(len(h)), atol=1e-10)

    @pytest.mark.parametrize("h, what", [([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
                                         ([[1.0, 0.0], [0.0, 0.0]], "positive definite"),
                                         ([[1.0, 2.0], [2.0, 1.0]], "positive definite")])
    def test_rejected(self, h, what):
        with pytest.raises(FactorizationError, match=f"h is not {what}"):
            spd_inverse(h, "h")


def power_bound(a, k):
    """The Frobenius norm of a^k: the bound a certified power k puts below one."""
    return float(np.linalg.norm(np.linalg.matrix_power(np.asarray(a, float), k), "fro"))


def decay_constants(a, k):
    """Constants c_a, phi with ||a^t|| <= c_a phi^t for all t, from a
    certified power k: phi = ||a^k||_F^(1/k) (any phi < 1 when a^k = 0) and
    c_a the largest ||a^j||_F / phi^j over j < k."""
    bound = power_bound(a, k)
    phi = bound ** (1.0 / k) if bound > 0.0 else 0.5
    return max([1.0] + [power_bound(a, j) / phi**j for j in range(1, k)]), phi


class TestPowerNormCertificate:
    def test_scalar_half(self):
        k = power_norm_certificate(np.array([[0.5]]), n_max=10)
        assert k == 1 and power_bound([[0.5]], k) == pytest.approx(0.5)

    def test_nilpotent(self):
        a = [[0.0, 2.0], [0.0, 0.0]]
        k = power_norm_certificate(a, n_max=10)
        assert k == 2 and power_bound(a, k) == 0.0

    def test_identity_fails(self):
        assert power_norm_certificate(np.eye(2), n_max=10) is None

    def test_decay_constants_bound_all_powers(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a *= 0.8 / max(1.0, np.abs(np.linalg.eigvals(a)).max())
            k = power_norm_certificate(a)
            assert k is not None
            c_a, phi = decay_constants(a, k)
            for t in range(0, 25):
                nt = np.linalg.norm(np.linalg.matrix_power(a, t), 2)
                assert nt <= c_a * phi**t + 1e-9


class TestSpectrumBounds:
    def test_vs_eigvalsh(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            h = random_spd(rng, n, scale=0.1)
            lo, hi = symmetric_eig_bounds(h)
            ev = np.linalg.eigvalsh(h)
            assert lo <= ev[0] + 1e-12
            assert hi >= ev[-1] - 1e-12
            assert lo >= ev[0] * 0.95 - 1e-9
            assert hi <= ev[-1] * 1.05 + 1e-9

    def test_zero_matrix(self):
        lo, hi = symmetric_eig_bounds(np.zeros((3, 3)))
        assert lo == 0.0 and hi == 0.0

    def test_spectral_norm_upper(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = rng.standard_normal((4, 3))
            true = np.linalg.norm(m, 2)
            hi = spectral_norm_upper(m)
            assert true - 1e-12 <= hi <= true * 1.05 + 1e-9

    def test_margin_widens_outward(self):
        # diagonal spectra are computed exactly, so the margin alone shows
        h = np.diag([-2.0, 0.5, 3.0])
        lo, hi = symmetric_eig_bounds(h)
        assert lo < -2.0 and hi > 3.0
        assert -2.0 - lo == pytest.approx(hi - 3.0) and hi - 3.0 < 1e-12
        assert 3.0 < spectral_norm_upper(h) < 3.0 + 1e-12

    def test_not_symmetric_rejected(self):
        with pytest.raises(FactorizationError):
            symmetric_eig_bounds([[1.0, 0.5], [0.0, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eig_bounds([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            spectral_norm_upper([[np.inf, 0.0]])
