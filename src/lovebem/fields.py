"""Radiation of recovered surface currents and error diagnostics.

Evaluation points must stay at least one triangle diameter away from
the current-carrying surface: the kernels are integrated with plain
product rules that only converge for smooth integrands.  Reconstruction
quality is summarized as relative L2 field errors on concentric
Fibonacci-sampled spheres, and the interior zero-field property is
checked by radiating onto points inside the surface.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .dipole import DipoleSource, field_arrays
from .operators import ETA0, _phase

__all__ = [
    "ErrorCurve",
    "KernelRows",
    "check_love_condition",
    "error_curve",
    "fibonacci_directions",
    "radiate_arrays",
    "save_error_curve",
]

_FOUR_PI = 4.0 * math.pi
# Points per kernel block, so a block's (16, 2880) real arrays of 0.37 MB
# stay in cache.
_CHUNK = 16
# Polynomial degree of the product rule on the refined mesh.
_DEGREE = 4


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic near-uniform unit vectors, golden-angle ordered."""
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _quadrature_tables(space, coeffs):
    """Current values at the mesh's quadrature points and face divergences."""
    fine = space.fine
    if coeffs is None:
        return (np.zeros(fine.quadrature(_DEGREE)[1].shape + (3,),
                         dtype=complex), np.zeros(fine.n_faces, dtype=complex))
    local = (space.local @ np.asarray(coeffs)).reshape(-1, 3)
    values = np.einsum("...a,...ac->...c", local[:, None, :],
                       fine.rt0_values(_DEGREE))
    divs = (2.0 * fine.rt0_scale * local).sum(axis=1)
    return values, divs


def _reject_near(mesh, points):
    diameter = float(mesh.face_diameters.max())
    cloud = np.vstack([mesh.vertices, mesh.face_centroids])
    for start in range(0, len(points), _CHUNK):
        block = points[start:start + _CHUNK]
        dist = np.linalg.norm(block[:, None, :] - cloud[None, :, :], axis=2)
        if dist.min() < diameter:
            raise ValueError(
                "evaluation point sits within one triangle diameter of the "
                "surface; near-surface evaluation is unsupported")


class KernelRows:
    """Field kernel rows of one surface and wavenumber, kept per point set.

    The rows ``_radiate`` multiplies with the current tables depend on
    the refined mesh, the wavenumber and the points only, so radiating
    new currents onto known points needs just the two products.  The
    owner keys a store on the surface and the wavenumber; the store keys
    point sets on the exact bytes of their array.  A point set is kept
    only while all kept rows fit in ``bound`` bytes; one that does not
    fit is computed afresh on every call.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.sets = {}

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes + g.nbytes
                   for chunks in self.sets.values() for a, g in chunks)


def _kernel_rows(points, y, w, k, fresh):
    """Kernel rows ``(a, g)`` of each chunk of points, in order.

    For a chunk of n points, a = (a_c; a_s) holds the cos and sin rows
    of the kernel e^{ikR} w / R and g = (g_r; g_i) the real and
    imaginary rows of the gradient factor (ik/R - 1/R^2) times the
    kernel, each of shape (2n, Q).  With ``fresh`` every chunk gets
    arrays of its own; otherwise the next chunk overwrites them.
    """
    n_max = min(_CHUNK, len(points))
    r = np.empty((n_max, len(y)))
    scratch = np.empty_like(r)
    phase = np.empty(r.shape, dtype=complex)
    a = None
    for start in range(0, len(points), _CHUNK):
        x = points[start:start + _CHUNK]
        n = len(x)
        if fresh or a is None:
            a, g = np.empty((2 * n, len(y))), np.empty((2 * n, len(y)))
        r2, d = r[:n], scratch[:n]
        np.subtract.outer(x[:, 0], y[:, 0], out=r2)
        r2 *= r2
        for c in (1, 2):
            np.subtract.outer(x[:, c], y[:, c], out=d)
            d *= d
            r2 += d
        dist = np.sqrt(r2, out=r2)
        ph = _phase(np.multiply(dist, k, out=d), out=phase[:n])
        weight = np.divide(w, dist, out=d)
        a_c, a_s = a[:n], a[n:2 * n]
        np.multiply(ph.real, weight, out=a_c)
        np.multiply(ph.imag, weight, out=a_s)
        inv_r = np.divide(1.0, dist, out=dist)
        g_r, g_i = g[:n], g[n:2 * n]
        np.multiply(a_c, inv_r, out=g_r)
        g_r += k * a_s
        g_r *= inv_r
        g_r *= -1.0
        np.multiply(a_s, inv_r, out=g_i)
        np.subtract(k * a_c, g_i, out=g_i)
        g_i *= inv_r
        yield a[:2 * n], g[:2 * n]


def _radiate(solution, rwg, bc, points, rows=None, magnetic=True):
    """E of ``m`` and of ``j`` at exterior points, and the total H.

    Also returns the current values and weights at the quadrature
    points the fields were radiated from, as ``(m_vals, j_vals, wts)``.
    ``rows``, a ``KernelRows`` of this surface and wavenumber, supplies
    the points' kernel rows if it holds them and keeps them if they fit.
    With ``magnetic`` false the tables and products hold E's columns
    only, and H is ``None``.
    """
    if rwg.fine is not bc.fine:
        raise ValueError("spaces must share the same refined mesh")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    key = points.tobytes()
    chunks = None if rows is None else rows.sets.get(key)
    if chunks is None:
        _reject_near(rwg.mesh, points)
    k = float(solution.wavenumber)
    pts, wts = rwg.fine.quadrature(_DEGREE)
    m_vals, m_divs = _quadrature_tables(rwg, solution.m)
    j_vals, j_divs = _quadrature_tables(bc, solution.j)
    # E is the curl of m plus the potentials of j, H the curl of j plus
    # the potentials of m.  Per quadrature point y, a field's group holds
    # v for the kernel, and v, y × v, div, y·div for the gradient kernel
    # g, as with d = x - y, Σ g d × v = x × Σ g v - Σ g y × v and
    # Σ g d div = x Σ g div - Σ g y div.  E's group comes first, so H
    # only appends its own.
    y = pts.reshape(-1, 3)
    m_v, j_v = m_vals.reshape(-1, 3), j_vals.reshape(-1, 3)
    m_div, j_div = (np.repeat(d, pts.shape[1])[:, None]
                    for d in (m_divs, j_divs))
    groups = [(m_v, j_v, j_div), (j_v, m_v, m_div)][:2 if magnetic else 1]
    potential_table = _float_table([pot for _, pot, _ in groups])
    gradient_table = _float_table([
        col for curled, _, div in groups
        for col in (curled, np.cross(y, curled), div, y * div)])
    if chunks is None:
        # a and g: two (2n, Q) float arrays per chunk of n points.
        size = 2 * 2 * len(points) * len(y) * 8
        keep = rows is not None and rows.nbytes + size <= rows.bound
        chunks = _kernel_rows(points, y, wts.reshape(-1) / _FOUR_PI, k,
                              fresh=keep)
        if keep:
            chunks = rows.sets[key] = list(chunks)
            for a, g in chunks:
                a.setflags(write=False)
                g.setflags(write=False)

    # Per chunk, the cos and sin rows against the potential table and
    # the real and imaginary gradient rows against the gradient table;
    # the x-dependent parts then follow for all points at once.
    pot = np.empty((2, len(points), potential_table.shape[1]))
    sums = np.empty((2, len(points), gradient_table.shape[1]))
    for start, (a, g) in zip(range(0, len(points), _CHUNK), chunks):
        n = len(a) // 2
        pot[:, start:start + n] = (a @ potential_table).reshape(2, n, -1)
        sums[:, start:start + n] = (g @ gradient_table).reshape(2, n, -1)
    pot, sums = pot.view(complex), sums.view(complex)
    pot = (pot[0] + 1j * pot[1]).reshape(-1, len(groups), 3)
    sums = (sums[0] + 1j * sums[1]).reshape(-1, len(groups), 10)
    curl = np.cross(points[:, None], sums[..., 0:3]) - sums[..., 3:6]
    charge = points[:, None] * sums[..., 6:7] - sums[..., 7:10]
    scalar = (1j / k) * (k * k * pot + charge)
    h = (curl[:, 1] + scalar[:, 1]) / ETA0 if magnetic else None
    return -curl[:, 0], scalar[:, 0], h, (m_vals, j_vals, wts)


def _float_table(columns):
    """Columns side by side, as the float view the products read.

    Complex even for real currents: the view holds the real and
    imaginary parts of each column next to each other.
    """
    return np.concatenate(columns, axis=1).astype(complex).view(np.float64)


def radiate_arrays(solution, rwg, bc, points, *, rows=None, magnetic=True):
    """Electric and magnetic fields of a solution at exterior points.

    ``solution.m`` radiates through the magnetic-current potentials in
    the RWG space, ``solution.j`` through the scaled electric-current
    potentials in the BC space; a missing ``j`` contributes nothing.
    ``rows`` is an optional ``KernelRows`` store of this surface and
    wavenumber.  Returns two complex arrays of shape ``(n_points, 3)``;
    with ``magnetic`` false only E is radiated, on half the table
    columns, and H is ``None``.
    """
    e_m, e_j, h, _ = _radiate(solution, rwg, bc, points, rows, magnetic)
    return e_j + e_m, h


@dataclass(frozen=True)
class ErrorCurve:
    """Relative field errors over evaluation distance from the surface."""

    radii: np.ndarray
    errors: np.ndarray
    formulation: str

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=np.float64)
        errors = np.asarray(self.errors, dtype=np.float64)
        if radii.shape != errors.shape or radii.ndim != 1:
            raise ValueError("radii and errors must be matching vectors")
        if not np.all(np.diff(radii) > 0.0):
            raise ValueError("radii must be strictly increasing")
        if not np.all(errors >= 0.0):
            raise ValueError("errors must be nonnegative")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "errors", errors)


def _surface_center(mesh):
    weighted = mesh.face_areas[:, None] * mesh.face_centroids
    return weighted.sum(axis=0) / mesh.face_areas.sum()


def error_curve(solution, source: DipoleSource, rwg, bc, radii,
                n_points: int = 200, *, rows=None) -> ErrorCurve:
    """Relative L2 field error on concentric evaluation spheres.

    ``radii`` are offsets from the surface in wavelengths; every sphere
    is sampled with the same deterministic direction set and compared
    against the source electric field over all vector components, so
    only E is radiated.  ``rows`` is passed on to ``radiate_arrays``.
    """
    k = float(solution.wavenumber)
    if abs(source.ctx.wavenumber - k) > 1e-9 * k:
        raise ValueError("solution and source disagree on the frequency")
    radii = np.asarray(radii, dtype=np.float64)
    wavelength = 2.0 * math.pi / k
    center = _surface_center(rwg.mesh)
    surface_radius = float(
        np.linalg.norm(rwg.mesh.vertices - center, axis=1).max())
    directions = fibonacci_directions(n_points)
    sphere_radii = surface_radius + radii * wavelength
    points = (center + sphere_radii[:, None, None] * directions).reshape(-1, 3)
    e_rec, _ = radiate_arrays(solution, rwg, bc, points, rows=rows,
                              magnetic=False)
    e_ref, _ = field_arrays(source, points, magnetic=False)
    shape = (len(radii), n_points, 3)
    shells = zip(e_rec.reshape(shape), e_ref.reshape(shape))
    errors = [np.linalg.norm(rec - ref) / np.linalg.norm(ref)
              for rec, ref in shells]
    return ErrorCurve(radii=radii, errors=np.asarray(errors),
                      formulation=solution.formulation)


def check_love_condition(solution, rwg, bc, interior_points, *, rows=None):
    """Worst interior field leak relative to the surface current level.

    Radiates the pair onto points strictly inside the surface and
    normalizes the largest field magnitude by the area-weighted mean
    current magnitude on the surface, so a zero return means the pair
    radiates nothing inward at the sampled points.  Returns
    ``(residual, residual_without_j)`` from one evaluation: the leak of
    the pair, and the leak of ``m`` alone, normalized as if ``j`` were
    missing.  Only E is radiated.  ``rows`` is an optional
    ``KernelRows`` store, as for ``radiate_arrays``.
    """
    e_m, e_j, _, (m_vals, j_vals, wts) = _radiate(
        solution, rwg, bc, interior_points, rows, magnetic=False)
    area = wts.sum()
    mean_m = float((np.linalg.norm(m_vals, axis=2) * wts).sum() / area)
    mean_j = float((np.linalg.norm(j_vals, axis=2) * wts).sum() / area)
    return (_leak(e_j + e_m, max(mean_m, mean_j)), _leak(e_m, mean_m))


def _leak(e_in, level):
    if level == 0.0:
        return 0.0
    return float(np.linalg.norm(e_in, axis=1).max() / level)


def save_error_curve(curve: ErrorCurve, path, extra=None) -> None:
    """Write an error curve as CSV.

    ``extra`` adds a leading JSON provenance comment line.
    """
    with open(path, "w", newline="") as handle:
        if extra:
            handle.write("# " + json.dumps(extra) + "\n")
        writer = csv.writer(handle)
        writer.writerow(["radius_lambda", "rel_error", "formulation"])
        for radius, error in zip(curve.radii, curve.errors):
            writer.writerow([repr(float(radius)), repr(float(error)),
                             curve.formulation])
