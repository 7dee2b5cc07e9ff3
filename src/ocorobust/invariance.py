"""Robust positively invariant set computations.

The minimal RPI set of x+ = A_K x + w, w in W_bar, is the infinite Minkowski
series sum_i A_K^i W_bar. We compute the classic epsilon-outer approximation:
truncate the series at s terms and inflate by 1/(1-alpha), where alpha
certifies A_K^s W_bar inside alpha*W_bar. With zonotopic W_bar every step is
closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexsets import Zonotope, direction_net
from .errors import DimensionMismatch, InfeasibleError
from .matlin import as_matrix, power_norm_certificate


@dataclass
class RpiResult:
    p: Zonotope
    s: int
    alpha: float
    epsilon_bound: float


def _alpha_for(a_pow_s, w_bar, facet_normals, w_supports):
    mapped = w_bar.linear_image(a_pow_s)
    return float(np.max(mapped.support_batch(facet_normals) / w_supports))


def mrpi_outer(a_k, w_bar, epsilon=None, s_max=200):
    """Outer approximation of the minimal RPI set as a zonotope.

    Finds the smallest truncation order s with alpha(s) <= eps/(eps + r(F_s)),
    where alpha(s) is the support ratio of A_K^s W_bar against W_bar and
    r(F_s) bounds the radius of the partial sum. The result contains the
    minimal RPI set and exceeds it by at most epsilon in every direction.
    """
    a_k = as_matrix(a_k, "a_k")
    if power_norm_certificate(a_k) is None:
        raise InfeasibleError("closed-loop matrix is not certified Schur stable")
    if not w_bar.contains_origin_interior():
        raise InfeasibleError("disturbance set must be full-dimensional with the origin inside")
    if epsilon is None:
        epsilon = 1e-4 * max(w_bar.radius_upper(), 1e-12)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    # With 0 strictly inside W_bar, every facet has a positive support.
    facet_normals, offsets = w_bar.to_halfspaces()
    w_supports = offsets + facet_normals @ w_bar.center

    partial = Zonotope.point(np.zeros(w_bar.dim))
    a_pow = np.eye(w_bar.dim)
    best_alpha = np.inf
    for s in range(1, int(s_max) + 1):
        partial = partial.minkowski_sum(w_bar.linear_image(a_pow)).prune()
        a_pow = a_pow @ a_k
        alpha = _alpha_for(a_pow, w_bar, facet_normals, w_supports)
        best_alpha = min(best_alpha, alpha)
        threshold = epsilon / (epsilon + partial.radius_upper())
        if alpha <= threshold:
            p = partial.scale(1.0 / (1.0 - alpha))
            return RpiResult(p=p, s=s, alpha=alpha, epsilon_bound=epsilon)
    raise InfeasibleError(
        f"mRPI truncation order exhausted at s_max={s_max}, best alpha={best_alpha:.3e}"
    )


def tail_set(a_k, w_bar, mu, mrpi):
    """Outer approximation of the mu-step tail sum_{i>=mu} A_K^i W_bar.

    Equals A_K^mu applied to the mRPI outer approximation, since the tail is
    exactly the mu-th power image of the full series.
    """
    a_k = as_matrix(a_k, "a_k")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    return mrpi.p.linear_image(np.linalg.matrix_power(a_k, int(mu))).prune()


def certify_rpi(p, a_k, w_bar, tol=1e-9):
    """Check A_K p (+) W_bar inside p over facet normals and a direction net.

    Exact up to the direction net; for dim <= 3 the facet normals of p make
    the test exact whenever p has full-dimensional generators.
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
