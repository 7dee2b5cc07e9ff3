import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocorobust.errors import FactorizationError
from ocorobust.matlin import (
    numeric_rank,
    power_norm_certificate,
    row_norms,
    row_reduce,
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


FLOAT_REDUCTIONS = (np.maximum, np.minimum, np.add)
# NaNs of both signs and other payloads, besides numpy's own.
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                 0xFFF0000000000001], np.uint64).view(np.float64)
SPECIAL = [0.0, -0.0, -1.0, 1.0, np.inf, -np.inf, *NANS]


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint8), want.view(np.uint8)))


def layouts(rows):
    """The block as C-ordered rows, as the transpose of a step-major array
    (``row_reduce`` copies neither) and as a column slice of a wider block."""
    wide = np.hstack([rows, np.ones((len(rows), 3))])
    return rows, np.ascontiguousarray(rows.T).T, wide[:, :rows.shape[1]]


def assert_row_reduce_exact(rows):
    """``row_reduce`` and ``row_norms`` against numpy's row-by-row reductions
    of the C-ordered block, bit for bit, in every layout."""
    rows = np.ascontiguousarray(rows)
    for ufunc in FLOAT_REDUCTIONS:
        try:
            want = ufunc.reduce(rows, axis=1)
        except ValueError:  # a maximum or minimum of no entries
            for block in layouts(rows):
                with pytest.raises(ValueError):
                    row_reduce(ufunc, block)
            continue
        for block in layouts(rows):
            assert same_bits(row_reduce(ufunc, block), want), ufunc.__name__
    signs = rows > 0.0
    for ufunc in (np.logical_and, np.logical_or):
        for block in layouts(signs):
            assert same_bits(row_reduce(ufunc, block), ufunc.reduce(signs, axis=1))
    for block in layouts(rows):
        assert same_bits(row_norms(block), np.linalg.norm(rows, axis=1))


class TestRowReduce:
    @seed(3701)
    @settings(max_examples=400, database=None, deadline=None)
    @given(st.data())
    def test_drawn_blocks_match_row_by_row(self, data):
        # 400 drawn blocks of 0-30 rows of 0-24 entries. A block's entries
        # are any floats and SPECIAL ones (+-0.0, +-inf and NaNs of several
        # payloads), or +-0.0 and negative ones only, so that zero and NaN
        # maxima and minima, where step-major order and numpy's paired row
        # loop can differ, come up at every width.
        shape = (data.draw(st.integers(0, 30)), data.draw(st.integers(0, 24)))
        entries = data.draw(st.sampled_from([
            st.one_of(st.floats(), st.sampled_from(SPECIAL)),
            st.sampled_from([0.0, -0.0, -1.0, -np.inf])]))
        with np.errstate(invalid="ignore", over="ignore"):
            assert_row_reduce_exact(data.draw(arrays(np.float64, shape, elements=entries)))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 20, 50])
    def test_random_rows_every_width(self, width):
        # Sums of 8 or more terms take numpy's row loop (its pairwise sums
        # round differently from a step-major sum), shorter ones the
        # step-major form.
        rng = np.random.default_rng(width)
        rows = rng.standard_normal((400, width)) * 10.0 ** rng.integers(-8, 8, (400, width))
        assert_row_reduce_exact(rows)
        if width >= 8:
            stepwise = np.add.reduce(np.ascontiguousarray(rows.T), axis=0)
            assert not np.array_equal(stepwise, np.add.reduce(rows, axis=1))

    def test_zero_maximum_keeps_numpy_sign(self):
        # numpy's row loop pairs the nine entries, so this row's maximum is
        # -0.0, while the step-major form gives 0.0; the row is taken again.
        row = [-1.0, -1.0, -1.0, 0.0, -0.0, 0.0, -1.0, -0.0, 0.0]
        rows = np.array([row] * 3)
        assert np.signbit(np.maximum.reduce(rows, axis=1)).all()
        assert not np.signbit(np.maximum.reduce(np.ascontiguousarray(rows.T), axis=0)).any()
        assert_row_reduce_exact(rows)

    @pytest.mark.parametrize("width", [0, 1, 4, 12])
    def test_blocks_of_no_rows(self, width):
        # (0, k) blocks: empty results, or numpy's ValueError for a maximum
        # of no entries (k = 0).
        assert_row_reduce_exact(np.zeros((0, width)))
        assert row_reduce(np.add, np.zeros((0, width))).shape == (0,)
