"""Hertzian-dipole reference fields and measurement-vector synthesis.

The dipole closed forms keep every near-field order (1/r, 1/r^2, 1/r^3)
and follow the package kernel conventions: time factor e^{-i omega t},
outgoing phase e^{+ikr}.  The moment is the current moment I*l in A*m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ETA0, FrequencyContext, _phase
from .spaces import BasisSpace

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


def field_arrays(src: DipoleSource, points: np.ndarray, *,
                 magnetic: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """E and H arrays of shape ``(n, 3)`` at the given points.

    With ``magnetic=False`` H is not computed and is returned as None.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = src.ctx.wavenumber
    d = points - src.position
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("evaluation point coincides with the dipole")
    n = d / r[:, None]
    m = src.moment
    phase = _phase(k * r)
    outer = phase / r
    inner = phase * (1.0 / r ** 3 - 1j * k / r ** 2)
    # With a = k^2 outer and b = inner, the transverse part (n x m) x n
    # = m - n (n.m) and the radial part n (n.m) combine into
    # c [(a - b) m + (3 b - a) n (n.m)].
    far = k ** 2 * outer
    c = 1j * ETA0 / (4.0 * np.pi * k)
    e = np.multiply.outer(c * (far - inner), m)
    e += (c * (3.0 * inner - far) * (n @ m))[:, None] * n
    if not magnetic:
        return e, None
    n_x_m = np.cross(n, np.broadcast_to(m, n.shape))
    h = (1j * k / (4.0 * np.pi)) * n_x_m * (
        outer * (1.0 - 1.0 / (1j * k * r)))[:, None]
    return e, h


def sample_measurement(src: DipoleSource, bc_test: BasisSpace,
                       degree: int = 4, rotated: bool = True,
                       magnetic: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Tested measurement vectors e_i = <n x g_i, E> and h_i = <n x g_i, H>.

    Testing runs on the refined mesh of ``bc_test`` with a regular rule
    of the given degree; the integrand is smooth because the source sits
    strictly inside the measurement surface.  With ``rotated=False`` the
    test functions are used plain, giving e_i = <g_i, E>; the inversion
    paths consume that flavour (see the formulation solvers).  With
    ``magnetic=False`` H is not tested and ``h`` is None.
    """
    fine = bc_test.fine
    pts, wts = fine.quadrature(degree)
    test = fine.rt0_values(degree)
    if rotated:
        test = np.cross(fine.face_normals[:, None, None, :], test)
    e, h = field_arrays(src, pts.reshape(-1, 3), magnetic=magnetic)
    # The weighted test table: for each face, its three local functions
    # against (quadrature point, component), so testing a field is one
    # batched real product on the field's float view.
    n_faces, n_quad = wts.shape
    weighted = np.empty((n_faces, 3, n_quad, 3))
    np.multiply(test.transpose(0, 2, 1, 3), wts[:, None, :, None],
                out=weighted)
    weighted = weighted.reshape(n_faces, 3, 3 * n_quad)

    def tested(field):
        values = field.reshape(n_faces, 3 * n_quad, 1).view(np.float64)
        per_face = (weighted @ values).view(complex)
        return bc_test.local.T @ per_face.reshape(-1)
    return tested(e), (tested(h) if magnetic else None)
