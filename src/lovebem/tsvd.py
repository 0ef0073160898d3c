"""Truncated-SVD pseudo-inversion and condition-at-threshold reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegularizationPolicy", "SVDFactors", "SolveReport", "factorize",
    "tsvd_solve", "condition_at_threshold",
]


@dataclass(frozen=True)
class RegularizationPolicy:
    """Relative truncation rule: retain singular values >= threshold * max."""

    threshold: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie strictly between 0 and 1")


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
    return int(np.count_nonzero(sigmas >= policy.threshold * sigmas[0]))


@dataclass(frozen=True, eq=False)
class SVDFactors:
    """Thin SVD u @ diag(sigmas) @ vh of ``matrix``, all read-only."""

    matrix: np.ndarray
    u: np.ndarray
    sigmas: np.ndarray
    vh: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


def factorize(matrix: np.ndarray) -> SVDFactors:
    """Factor a matrix once for any number of ``tsvd_solve`` calls.

    Raises ``ValueError`` for non-finite entries.
    """
    matrix = np.asarray(matrix).view()
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    u, sigmas, vh = np.linalg.svd(matrix, full_matrices=False)
    for arr in (matrix, u, sigmas, vh):
        arr.setflags(write=False)
    return SVDFactors(matrix, u, sigmas, vh)


def tsvd_solve(factors: SVDFactors, rhs: np.ndarray,
               policy: RegularizationPolicy | None = None):
    """Least-squares solution through the retained singular subspace.

    ``factors`` comes from ``factorize``.  Returns ``(x, SolveReport)``
    with x = sum over retained i of (u_i^H b / sigma_i) v_i.  Raises
    ``ValueError`` when the matrix is identically zero (retained rank
    would be 0).
    """
    policy = RegularizationPolicy() if policy is None else policy
    rhs = np.asarray(rhs)
    if rhs.shape[0] != factors.shape[0]:
        raise ValueError("right side length does not match matrix rows")
    u, sigmas, vh = factors.u, factors.sigmas, factors.vh
    rank = _retained(sigmas, policy)
    coeffs = (u[:, :rank].conj().T @ rhs) / sigmas[:rank]
    x = vh[:rank].conj().T @ coeffs
    scale = float(np.linalg.norm(rhs))
    residual = 0.0 if scale == 0.0 else float(
        np.linalg.norm(factors.matrix @ x - rhs)) / scale
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
