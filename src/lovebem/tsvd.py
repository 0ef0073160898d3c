"""Truncated-SVD pseudo-inversion and condition-at-threshold reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegularizationPolicy", "SolveReport", "tsvd_solve",
    "condition_at_threshold",
]


@dataclass(frozen=True)
class RegularizationPolicy:
    """Relative truncation rule: retain singular values >= threshold * max.

    ``rank_cap`` optionally limits the retained rank regardless of the
    threshold.
    """

    threshold: float = 1e-6
    rank_cap: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie strictly between 0 and 1")
        if self.rank_cap is not None and self.rank_cap < 1:
            raise ValueError("rank_cap must be at least 1 when given")


@dataclass(frozen=True)
class SolveReport:
    """What the pseudo-inversion kept and how well it fit."""

    sigma_max: float
    sigma_cut: float
    rank: int
    condition: float
    residual: float


def _retained(sigmas: np.ndarray, policy: RegularizationPolicy) -> int:
    if sigmas.size == 0 or sigmas[0] == 0.0:
        raise ValueError("matrix is zero; nothing survives the threshold")
    rank = int(np.count_nonzero(sigmas >= policy.threshold * sigmas[0]))
    if policy.rank_cap is not None:
        rank = min(rank, policy.rank_cap)
    return rank


def tsvd_solve(matrix: np.ndarray, rhs: np.ndarray,
               policy: RegularizationPolicy | None = None):
    """Least-squares solution through the retained singular subspace.

    Returns ``(x, SolveReport)`` with
    x = sum over retained i of (u_i^H b / sigma_i) v_i.  Raises
    ``ValueError`` when the matrix is identically zero (retained rank
    would be 0).
    """
    policy = RegularizationPolicy() if policy is None else policy
    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    if rhs.shape[0] != matrix.shape[0]:
        raise ValueError("right side length does not match matrix rows")
    u, sigmas, vh = np.linalg.svd(matrix, full_matrices=False)
    rank = _retained(sigmas, policy)
    coeffs = (u[:, :rank].conj().T @ rhs) / sigmas[:rank]
    x = vh[:rank].conj().T @ coeffs
    scale = float(np.linalg.norm(rhs))
    residual = 0.0 if scale == 0.0 else float(
        np.linalg.norm(matrix @ x - rhs)) / scale
    report = SolveReport(sigma_max=float(sigmas[0]),
                         sigma_cut=float(sigmas[rank - 1]),
                         rank=rank,
                         condition=float(sigmas[0] / sigmas[rank - 1]),
                         residual=residual)
    return x, report


def condition_at_threshold(matrix: np.ndarray,
                           policy: RegularizationPolicy | None = None
                           ) -> float:
    """sigma_max / sigma_cut under the policy, without solving anything."""
    policy = RegularizationPolicy() if policy is None else policy
    sigmas = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    rank = _retained(sigmas, policy)
    return float(sigmas[0] / sigmas[rank - 1])
