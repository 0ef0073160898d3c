"""Hertzian-dipole reference fields and measurement-vector synthesis.

The dipole closed forms keep every near-field order (1/r, 1/r^2, 1/r^3)
and follow the package kernel conventions: time factor e^{-i omega t},
outgoing phase e^{+ikr}.  The moment is the current moment I*l in A*m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh
from .operators import ETA0, FrequencyContext
from .quadrature import triangle_rule
from .spaces import BasisSpace, _face_basis

__all__ = ["DipoleSource", "field_arrays", "sample_measurement"]


@dataclass(frozen=True)
class DipoleSource:
    """Infinitesimal electric dipole with current moment ``moment``."""

    position: np.ndarray
    moment: np.ndarray
    ctx: FrequencyContext

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64)
        moment = np.asarray(self.moment, dtype=np.complex128)
        if position.shape != (3,) or not np.all(np.isfinite(position)):
            raise ValueError("position must be a finite 3-vector")
        if moment.shape != (3,) or not np.all(np.isfinite(moment)):
            raise ValueError("moment must be a finite 3-vector")
        if np.linalg.norm(moment) == 0.0:
            raise ValueError("moment must be nonzero")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "moment", moment)


def field_arrays(src: DipoleSource, points: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """E and H arrays of shape ``(n, 3)`` at the given points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = src.ctx.wavenumber
    d = points - src.position
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("evaluation point coincides with the dipole")
    n = d / r[:, None]
    m = src.moment
    n_x_m = np.cross(n, np.broadcast_to(m, n.shape))
    transverse = np.cross(n_x_m, n)
    radial = n * (n @ m)[:, None]
    phase = np.exp(1j * k * r)
    outer = (phase / r)[:, None]
    inner = (phase * (1.0 / r ** 3 - 1j * k / r ** 2))[:, None]
    e = (1j * ETA0 / (4.0 * np.pi * k)) * (
        k ** 2 * transverse * outer + (3.0 * radial - m) * inner)
    h = (1j * k / (4.0 * np.pi)) * n_x_m * outer * (
        1.0 - 1.0 / (1j * k * r))[:, None]
    return e, h


def _test_field(space: BasisSpace, values: np.ndarray,
                weights: np.ndarray, basis: np.ndarray,
                face_edges: np.ndarray, rotated: bool) -> np.ndarray:
    test = basis
    if rotated:
        test = np.cross(space.fine.face_normals[:, None, None, :], basis)
    local = np.einsum("fqac,fqc,fq->fa", test, values, weights)
    fine_vec = np.zeros(space.fine.n_edges, dtype=np.complex128)
    np.add.at(fine_vec, face_edges, local)
    return space.to_fine.T @ fine_vec


def sample_measurement(src: DipoleSource, gamma_m: TriangleMesh,
                       bc_test: BasisSpace, degree: int = 4,
                       rotated: bool = True
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Tested measurement vectors e_i = <n x g_i, E> and h_i = <n x g_i, H>.

    Testing runs on the refined mesh of ``bc_test`` with a regular rule
    of the given degree; the integrand is smooth because the source sits
    strictly inside the measurement surface.  With ``rotated=False`` the
    test functions are used plain, giving e_i = <g_i, E>; the inversion
    paths consume that flavour (see the formulation solvers).
    """
    if bc_test.mesh is not gamma_m:
        raise ValueError("test space does not live on the given surface")
    fine = bc_test.fine
    pts, wts = triangle_rule(degree).map_to(fine.face_corners)
    faces = np.arange(fine.n_faces)[:, None]
    basis = _face_basis(fine, pts, faces)
    e_flat, h_flat = field_arrays(src, pts.reshape(-1, 3))
    shape = pts.shape[:2] + (3,)
    e = _test_field(bc_test, e_flat.reshape(shape), wts, basis,
                    fine.face_edges, rotated)
    h = _test_field(bc_test, h_flat.reshape(shape), wts, basis,
                    fine.face_edges, rotated)
    return e, h
