"""Seeded generators backing the statistical test harness.

Risk draws feed conformal-coverage checks; planted-cluster point clouds
give clustering tests a known ground-truth partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dao.errors import DaoError


class InvalidSpec(DaoError):
    """A synthetic-data spec is internally inconsistent or infeasible."""


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    # Risk generation (log-normal: positively skewed, NLL-like).
    n_calib: int = 99
    n_test: int = 1
    risk_log_mean: float = 0.0
    risk_log_sigma: float = 1.0
    # Planted-cluster generation.
    n_points: int = 30
    n_planted_clusters: int = 3
    intra_spread: float = 0.1
    inter_separation: float = 0.9
    dimension: int = 16


def gen_risks(spec: SyntheticSpec) -> tuple[list[float], list[float]]:
    """I.i.d. log-normal calibration and test risks; same seed, same draws."""
    rng = np.random.default_rng(spec.seed)
    draws = rng.lognormal(spec.risk_log_mean, spec.risk_log_sigma, spec.n_calib + spec.n_test)
    return list(draws[: spec.n_calib]), list(draws[spec.n_calib :])


def _cluster_centers(k: int, target_cos: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors with pairwise cosine exactly `target_cos`.

    Built as alpha*u + beta*s_i where the s_i form a regular simplex
    (pairwise cosine -1/(k-1)) and u is orthogonal to all of them.
    """
    if k == 1:
        center = np.zeros(dim)
        center[0] = 1.0
        return center[None, :]
    if target_cos <= -1.0 / (k - 1):
        raise InvalidSpec(
            f"{k} centers at pairwise cosine {target_cos:.4f} are infeasible "
            f"(minimum is -1/(k-1) = {-1.0 / (k - 1):.4f})"
        )
    alpha_sq = (target_cos * (k - 1) + 1) / k
    alpha, beta = math.sqrt(alpha_sq), math.sqrt(1 - alpha_sq)
    basis = np.eye(k)
    simplex = basis - basis.mean(axis=0)
    simplex /= np.linalg.norm(simplex, axis=1, keepdims=True)
    centers = np.zeros((k, dim))
    centers[:, :k] = beta * simplex
    centers[:, k] = alpha
    return centers


def gen_clustered_points(spec: SyntheticSpec) -> tuple[list[np.ndarray], list[int]]:
    """Unit vectors with planted cluster labels.

    The construction guarantees that all intra-cluster cosine distances
    are at most `intra_spread` and all cross-cluster distances at least
    `inter_separation`, so leader clustering at any radius strictly
    between the two recovers the planted partition exactly.
    """
    k, dim = spec.n_planted_clusters, spec.dimension
    if spec.inter_separation <= 2 * spec.intra_spread:
        raise InvalidSpec("inter_separation must exceed 2 * intra_spread")
    if not 0.0 <= spec.intra_spread < 2.0 or not 0.0 < spec.inter_separation <= 2.0:
        raise InvalidSpec("spread must lie in [0, 2) and separation in (0, 2]")
    if k < 1 or spec.n_points < k:
        raise InvalidSpec("need at least one point per planted cluster")
    if dim < k + 2:
        raise InvalidSpec(f"dimension must be at least n_planted_clusters + 2 = {k + 2}")

    # Jitter half-angle: two points at angle phi from their center are at
    # most 2*phi apart, i.e. cosine distance at most intra_spread.
    phi = math.acos(1 - spec.intra_spread) / 2
    theta_sep = math.acos(1 - spec.inter_separation)
    theta_centers = theta_sep + 2 * phi
    if theta_centers > math.pi:
        raise InvalidSpec("separation plus jitter exceeds the antipodal angle")
    rng = np.random.default_rng(spec.seed)
    centers = _cluster_centers(k, math.cos(theta_centers), dim, rng)

    points: list[np.ndarray] = []
    labels: list[int] = []
    for i in range(spec.n_points):
        label = i % k
        center = centers[label]
        while True:
            raw = rng.standard_normal(dim)
            tangent = raw - np.dot(raw, center) * center
            norm = np.linalg.norm(tangent)
            if norm > 1e-12:
                break
        tangent /= norm
        psi = rng.uniform(0.0, phi)
        points.append(math.cos(psi) * center + math.sin(psi) * tangent)
        labels.append(label)
    return points, labels
