"""Convex set representations used by the constraint tightening.

Constraint sets are halfspace polytopes, disturbance sets are zonotopes.
That split keeps every operation closed-form: linear images and Minkowski
sums of zonotopes stay zonotopes, and the Pontryagin difference of a polytope
and a zonotope is the same polytope with per-facet support deductions, so the
tightened sets are polytopes too. Point membership in a zonotope has one
implementation, ``ZonotopeMembership``. No vertex enumeration and no LP is
performed anywhere: whether a polytope is compact is decided by exact
feasibility QPs of ``denseqp.polytope_is_empty``.
"""

from __future__ import annotations

import numpy as np

from .denseqp import polytope_is_empty
from .errors import DimensionMismatch
from .matlin import as_matrix, as_vector, numeric_rank

DEFAULT_MEMBERSHIP_TOL = 1e-9
# Every zonotope threshold is this times the set's own scale, so a set and its
# scaled copies get the same answers.
ZONOTOPE_RTOL = 1e-12


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

    def is_compact(self):
        """Nonempty and bounded, by exact feasibility QPs.

        A nonempty polyhedron is bounded iff its recession cone
        {d : normals d <= 0} is {0}, that is iff for each axis e_i and sign s
        no d has normals d <= 0 and s d_i >= 1. Any QP status other than
        "infeasible" reads as nonempty, so a numerical failure rejects the set.
        """
        if polytope_is_empty(self.normals, self.offsets):
            return False
        rhs = np.append(np.zeros(len(self.offsets)), -1.0)
        eye = np.eye(self.dim)
        return all(polytope_is_empty(np.vstack([self.normals, -row]), rhs)
                   for row in np.vstack([eye, -eye]))

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

    def support_batch(self, directions):
        """Exact support d.c + sum_j |d.g_j| of each row d of ``directions``."""
        dirs = as_matrix(directions, "directions")
        if dirs.shape[1] != self.dim:
            raise DimensionMismatch("direction dim mismatch")
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

    def scale(self, factor):
        """Scaling about the origin (center scales too)."""
        return Zonotope(factor * self.center, factor * self.generators)

    def prune(self, rtol=0.0):
        """Drop generator columns no larger than ``rtol`` times the largest
        entry (by default the exactly-zero ones; no order reduction)."""
        size = np.abs(self.generators).max(axis=0, initial=0.0)
        return Zonotope(self.center, self.generators[:, size > rtol * size.max(initial=0.0)])

    def merge_parallel(self, tol=1e-12):
        """The same set with each group of parallel generators summed into one.

        Columns whose unit directions differ by a sine of at most ``tol``, up
        to sign, are parallel; signed along the group's first column, their
        sum spans the same segment as the group. Zero columns are dropped.
        """
        g = self.prune().generators
        unit = g / np.abs(g).max(axis=0)  # no norm below underflows or overflows
        unit /= np.linalg.norm(unit, axis=0)
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

    def contains_origin_interior(self):
        """Full-dimensional with 0 strictly inside every facet (dim <= 3)."""
        if numeric_rank(self.generators, tol=ZONOTOPE_RTOL) != self.dim:
            return False
        normals, offsets = self.to_halfspaces()
        floor = ZONOTOPE_RTOL * np.abs(self.generators).max()
        return bool(np.all(offsets + normals @ self.center > floor))

    def to_halfspaces(self):
        """Facet form (normals, offsets) of the centered zonotope, dim <= 3.

        Requires the generators to span the ambient space. Normals come out
        unit length; offsets are relative to the center.
        """
        g = self.prune(ZONOTOPE_RTOL).generators
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
        keep = norms > ZONOTOPE_RTOL * norms.max(initial=0.0)
        if not np.any(keep):
            raise ValueError("degenerate zonotope: generators do not span the space")
        cand = cand[keep] / norms[keep, None]
        offsets = np.abs(cand @ g).sum(axis=1)
        normals = np.vstack([cand, -cand])
        return normals, np.concatenate([offsets, offsets])

    def samples(self, rng, count, scale=1.0):
        """``count`` points, one per row, each drawn uniformly over the
        generator coefficients (uniform over the set for boxes), in one draw."""
        xi = rng.uniform(-1.0, 1.0, size=(count, self.order))
        return scale * (self.center + xi @ self.generators.T)

    def corner(self):
        return self.center + self.generators @ np.ones(self.order)

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, order={self.order})"


# Rows per matrix product in the batched checks, so their temporaries stay
# (ROW_BLOCK, facets) however many rows (steps) there are.
ROW_BLOCK = 64


class ZonotopeMembership:
    """Point-membership margins for a fixed zonotope (dim <= 3).

    A full-dimensional zonotope is measured by its facet form, built after
    merging parallel generators, which gives the same set with fewer facets.
    A flat one (generators of rank below dim) is measured in its span: the
    margin is the larger of the distance to the span and the facet margin of
    the zonotope projected onto it; a point's margin is the distance to it.
    """

    def __init__(self, z):
        self.center = z.center
        g = z.prune(ZONOTOPE_RTOL).generators
        rank = numeric_rank(g, tol=ZONOTOPE_RTOL)
        # orthonormal basis of a flat set's span; None when full-dimensional
        if rank == z.dim:
            self.span, facets = None, z
        else:
            self.span = np.linalg.svd(g)[0][:, :rank]
            facets = Zonotope(np.zeros(rank), self.span.T @ g)
        if rank:
            self.normals, self.offsets = facets.merge_parallel().to_halfspaces()

    def margins(self, points):
        """Signed margin of each row of ``points`` (<= 0 inside, NaN for NaN)."""
        d = np.asarray(points, dtype=float) - self.center
        if self.span is None:
            return self._facet_margins(d)
        along = d @ self.span
        off_span = np.linalg.norm(d - along @ self.span.T, axis=1)
        return np.maximum(off_span, self._facet_margins(along)) if along.shape[1] else off_span

    def _facet_margins(self, d):
        out = np.empty(len(d))
        for lo in range(0, len(d), ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            out[rows] = (d[rows] @ self.normals.T - self.offsets).max(axis=1)
        return out


def pontryagin_deduct(p, z):
    """Pontryagin difference p (-) z of a polytope and a convex set.

    Exact: the same facets with each offset lowered by the support of z,
    {x : a_i.x <= b_i - h_z(a_i)}, returned as an ``HPolytope``. Over-tightening
    is not raised: the result may be empty (``denseqp.polytope_is_empty``
    tells).
    """
    if not isinstance(p, HPolytope):
        raise TypeError("first operand must be an HPolytope")
    if z.dim != p.dim:
        raise DimensionMismatch("dims differ in Pontryagin difference")
    return HPolytope(p.normals, p.offsets - z.support_batch(p.normals))


def zonotope_in_polytope(z, p, tol=0.0):
    """True iff support(z, a_i) <= b_i for every facet of p."""
    if z.dim != p.dim:
        raise DimensionMismatch("dims differ in containment check")
    return bool(np.all(z.support_batch(p.normals) <= p.offsets + tol))
