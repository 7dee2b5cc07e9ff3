"""Convex set representations used by the constraint tightening.

Constraint sets are halfspace polytopes, disturbance sets are zonotopes.
That split keeps every operation closed-form: linear images and Minkowski
sums of zonotopes stay zonotopes, and the Pontryagin difference of a polytope
and a zonotope reduces to per-facet support deductions. No vertex enumeration
is performed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatch, InfeasibleError
from .matlin import as_matrix, as_vector

DEFAULT_MEMBERSHIP_TOL = 1e-9


class HPolytope:
    """Intersection of halfspaces {x : normals @ x <= offsets}."""

    def __init__(self, normals, offsets):
        self.normals = as_matrix(normals, "normals")
        self.offsets = as_vector(offsets, "offsets")
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise DimensionMismatch(
                f"{self.normals.shape[0]} normals but {self.offsets.shape[0]} offsets"
            )
        row_norms = np.linalg.norm(self.normals, axis=1)
        if self.normals.shape[0] and row_norms.min() <= 0.0:
            raise ValueError("zero normal row in polytope")
        self.dim = self.normals.shape[1]

    @classmethod
    def box(cls, lb, ub):
        lb = as_vector(lb, "lb")
        ub = as_vector(ub, "ub")
        if lb.shape != ub.shape:
            raise DimensionMismatch("lb and ub dims differ")
        if np.any(lb >= ub):
            raise ValueError("box requires lb < ub componentwise")
        n = lb.size
        eye = np.eye(n)
        return cls(np.vstack([eye, -eye]), np.concatenate([ub, -lb]))

    def contains(self, x, tol=DEFAULT_MEMBERSHIP_TOL):
        return self.violation(x) <= tol

    def violation(self, x):
        """Largest signed constraint residual; <= 0 means inside."""
        x = as_vector(x, "x")
        if x.size != self.dim:
            raise DimensionMismatch(f"point dim {x.size} != set dim {self.dim}")
        return float(np.max(self.normals @ x - self.offsets))

    def violations(self, points):
        """``violation`` of each row of the (k, dim) array ``points``.

        A row with a NaN entry gets NaN, which no ``<= tol`` test accepts.
        """
        return (points @ self.normals.T - self.offsets).max(axis=1)

    def support(self, direction):
        """Support function via LP; raises InfeasibleError when unbounded."""
        d = as_vector(direction, "direction")
        if d.size != self.dim:
            raise DimensionMismatch("direction dim mismatch")
        res = linprog(-d, A_ub=self.normals, b_ub=self.offsets, bounds=(None, None), method="highs")
        if res.status == 3:
            raise InfeasibleError("polytope unbounded along direction")
        if res.status != 0:
            raise InfeasibleError(f"support LP failed: {res.message}")
        return float(-res.fun)

    def is_compact(self):
        """Nonempty and bounded, checked by support finiteness along +-axes."""
        try:
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = 1.0
                self.support(e)
                self.support(-e)
        except InfeasibleError:
            return False
        return True

    def contains_origin_interior(self):
        row_norms = np.linalg.norm(self.normals, axis=1)
        return bool(np.all(self.offsets / row_norms > 0.0))

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, facets={self.normals.shape[0]})"


class Zonotope:
    """Affine image of a hypercube: {center + G @ xi : |xi|_inf <= 1}."""

    def __init__(self, center, generators):
        self.center = as_vector(center, "center")
        self.generators = as_matrix(generators, "generators")
        if self.generators.shape[0] != self.center.size:
            raise DimensionMismatch(
                f"center dim {self.center.size} != generator rows {self.generators.shape[0]}"
            )
        self.dim = self.center.size

    @classmethod
    def point(cls, center):
        center = as_vector(center, "center")
        return cls(center, np.zeros((center.size, 0)))

    @classmethod
    def box(cls, halfwidths, center=None):
        h = as_vector(halfwidths, "halfwidths")
        if np.any(h < 0):
            raise ValueError("halfwidths must be nonnegative")
        c = np.zeros(h.size) if center is None else as_vector(center, "center")
        return cls(c, np.diag(h))

    @property
    def order(self):
        return self.generators.shape[1]

    def support(self, direction):
        """Exact support: d.c + sum_j |d.g_j|."""
        d = as_vector(direction, "direction")
        if d.size != self.dim:
            raise DimensionMismatch("direction dim mismatch")
        return float(d @ self.center + np.abs(d @ self.generators).sum())

    def support_batch(self, directions):
        """Support values for each row of ``directions``."""
        dirs = as_matrix(directions, "directions")
        return dirs @ self.center + np.abs(dirs @ self.generators).sum(axis=1)

    def linear_image(self, m):
        m = as_matrix(m, "m")
        if m.shape[1] != self.dim:
            raise DimensionMismatch(f"map cols {m.shape[1]} != set dim {self.dim}")
        return Zonotope(m @ self.center, m @ self.generators)

    def minkowski_sum(self, other):
        if not isinstance(other, Zonotope):
            raise TypeError("can only add another Zonotope")
        if other.dim != self.dim:
            raise DimensionMismatch("dims differ in Minkowski sum")
        return Zonotope(
            self.center + other.center,
            np.hstack([self.generators, other.generators]),
        )

    __add__ = minkowski_sum

    def scale(self, factor):
        """Scaling about the origin (center scales too)."""
        return Zonotope(factor * self.center, factor * self.generators)

    def prune(self, tol=0.0):
        """Drop exactly-zero generator columns (no order reduction)."""
        keep = np.abs(self.generators).max(axis=0) > tol if self.order else np.zeros(0, bool)
        return Zonotope(self.center, self.generators[:, keep])

    def merge_parallel(self, tol=1e-12):
        """The same set with each group of parallel generators summed into one.

        Columns whose unit directions differ by a sine of at most ``tol``, up
        to sign, are parallel; signed along the group's first column, their
        sum spans the same segment as the group. Zero columns are dropped.
        """
        g = self.prune().generators
        unit = g / np.linalg.norm(g, axis=0)
        left = np.ones(g.shape[1], bool)
        cols = []
        for i in range(g.shape[1]):
            if not left[i]:
                continue
            cos = unit[:, i] @ unit
            sin = np.linalg.norm(unit - np.outer(unit[:, i], cos), axis=0)
            group = left & (sin <= tol)
            left &= ~group
            cols.append(g[:, group] @ np.sign(cos[group]))
        return Zonotope(self.center, np.array(cols).reshape(-1, self.dim).T)

    def radius_upper(self):
        """Upper bound on max ||x|| over the set."""
        return float(np.linalg.norm(self.center) + np.linalg.norm(self.generators, axis=0).sum())

    def contains_origin(self, tol=DEFAULT_MEMBERSHIP_TOL):
        return self.contains_point(np.zeros(self.dim), tol=tol)

    def contains_point(self, x, tol=DEFAULT_MEMBERSHIP_TOL):
        """Exact membership for dim <= 3 via the facet form."""
        x = as_vector(x, "x")
        if x.size != self.dim:
            raise DimensionMismatch("point dim mismatch")
        d = x - self.center
        g = self.prune(1e-15 * max(1.0, np.abs(self.generators).max(initial=0.0))).generators
        rank = np.linalg.matrix_rank(g) if g.size else 0
        if rank == 0:
            return bool(np.linalg.norm(d, np.inf) <= tol)
        if rank == 1:
            u = g[:, np.argmax(np.linalg.norm(g, axis=0))]
            u = u / np.linalg.norm(u)
            along = float(u @ d)
            perp = float(np.linalg.norm(d - along * u))
            extent = float(np.abs(u @ g).sum())
            return perp <= tol and abs(along) <= extent + tol
        normals, offsets = self.to_halfspaces()
        return bool(np.all(normals @ d <= offsets + tol))

    def to_halfspaces(self):
        """Facet form (normals, offsets) of the centered zonotope, dim <= 3.

        Requires the generators to span the ambient space. Normals come out
        unit length; offsets are relative to the center.
        """
        g = self.prune(1e-15 * max(1.0, np.abs(self.generators).max(initial=0.0))).generators
        if self.dim == 1:
            extent = float(np.abs(g).sum())
            return np.array([[1.0], [-1.0]]), np.array([extent, extent])
        if self.dim == 2:
            cand = np.stack([g[1, :], -g[0, :]], axis=1)
        elif self.dim == 3:
            q = g.shape[1]
            ii, jj = np.triu_indices(q, k=1)
            cand = np.cross(g[:, ii].T, g[:, jj].T)
        else:
            raise DimensionMismatch("facet form implemented for dim <= 3 only")
        norms = np.linalg.norm(cand, axis=1)
        keep = norms > 1e-12 * max(1.0, norms.max(initial=0.0))
        if not np.any(keep):
            raise ValueError("degenerate zonotope: generators do not span the space")
        cand = cand[keep] / norms[keep, None]
        offsets = np.abs(cand @ g).sum(axis=1)
        normals = np.vstack([cand, -cand])
        return normals, np.concatenate([offsets, offsets])

    def sample(self, rng, scale=1.0):
        """Uniform draw over generator coefficients (exact for boxes)."""
        xi = rng.uniform(-1.0, 1.0, size=self.order)
        return scale * (self.center + self.generators @ xi)

    def corner(self, signs=None):
        xi = np.ones(self.order) if signs is None else as_vector(signs)
        return self.center + self.generators @ xi

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, order={self.order})"


@dataclass
class TightenedOffsets:
    """A polytope with per-facet support deductions: a_i.x <= b_i - d_i."""

    base: HPolytope
    deductions: np.ndarray = field(default=None)

    def __post_init__(self):
        self.deductions = as_vector(self.deductions, "deductions")
        if self.deductions.size != self.base.offsets.size:
            raise DimensionMismatch("one deduction per facet required")

    @property
    def dim(self):
        return self.base.dim

    @property
    def normals(self):
        return self.base.normals

    @property
    def offsets(self):
        return self.base.offsets - self.deductions

    @property
    def possibly_empty(self):
        """True when some tightened offset went negative (origin lost)."""
        return bool(np.any(self.offsets < 0.0))

    def contains(self, x, tol=DEFAULT_MEMBERSHIP_TOL):
        return self.violation(x) <= tol

    def violation(self, x):
        x = as_vector(x, "x")
        if x.size != self.dim:
            raise DimensionMismatch("point dim mismatch")
        return float(np.max(self.normals @ x - self.offsets))


def pontryagin_deduct(p, z):
    """Pontryagin difference p (-) z as per-facet support deductions.

    Exact for convex z: {x : a_i.x <= b_i - h_z(a_i)}. Over-tightening is
    flagged on the result, not raised.
    """
    if not isinstance(p, (HPolytope, TightenedOffsets)):
        raise TypeError("first operand must be a polytope")
    if z.dim != p.dim:
        raise DimensionMismatch("dims differ in Pontryagin difference")
    base = p.base if isinstance(p, TightenedOffsets) else p
    prior = p.deductions if isinstance(p, TightenedOffsets) else 0.0
    return TightenedOffsets(base, prior + z.support_batch(base.normals))


def zonotope_in_polytope(z, p, tol=0.0):
    """True iff support(z, a_i) <= b_i for every facet of p."""
    if z.dim != p.dim:
        raise DimensionMismatch("dims differ in containment check")
    return bool(np.all(z.support_batch(p.normals) <= p.offsets + tol))


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
