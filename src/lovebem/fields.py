"""Radiation of recovered surface currents and error diagnostics.

Evaluation points must stay at least one triangle diameter away from
the current-carrying surface: the kernels are integrated with plain
product rules that only converge for smooth integrands.  Reconstruction
quality is summarized as relative L2 field errors on concentric
spheres, and the interior zero-field property is checked by radiating
onto points inside the surface.

Each sphere is sampled as whole orbits of the icosahedron's 60
rotations (``_orbit_directions``): 60 m directions for a requested n,
m = max(1, round(n / 60)), so 1 000 gives 1 020 and 64 gives 60.  A
mesh that keeps those rotations maps every fine-face corner onto a
corner, and K(g x, y) = K(x, g^-1 y), so the kernel rows of one point
per orbit give every other point's rows by a corner permutation
(Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992).
On a mesh without them every point is its own representative.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .dipole import DipoleSource, field_arrays
from .mesh import _face_basis, _icosahedral_rotations
from .operators import _phase
from .quadrature import triangle_rule

__all__ = [
    "ErrorCurve",
    "KernelRows",
    "RadiationTables",
    "check_love_condition",
    "error_curve",
    "fibonacci_directions",
    "radiate_arrays",
    "radiation_tables",
    "save_error_curve",
]

_FOUR_PI = 4.0 * math.pi
# Points per kernel block, so a block's (16, 2880) real arrays of 0.37 MB
# at the quadrature points stay in cache; its corner rows are (32, 1440).
_CHUNK = 16
# Polynomial degree of the product rule on the refined mesh.
_DEGREE = 4
# The rotation group of a point set that is its own representatives.
_IDENTITY = np.zeros(1, dtype=np.intp)
_IDENTITY.setflags(write=False)
# Orbit design: Fibonacci candidates for the seeds, Fibonacci samples
# and Lloyd steps for the centroidal refinement.
_SEED_CANDIDATES = 4000
_LLOYD_SAMPLES = 20000
_LLOYD_STEPS = 40


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic near-uniform unit vectors, golden-angle ordered."""
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _orbit_directions(n: int) -> np.ndarray:
    """About ``n`` unit directions as whole icosahedral orbits.

    Returns the 60 images under ``_icosahedral_rotations()`` of
    m = max(1, round(n / 60)) seeds, rotation-major: row g m + i is
    rotation g applied to seed i, so the first m rows are the seeds.
    The seeds are picked greedily, max-min, among
    ``fibonacci_directions(_SEED_CANDIDATES)``: each is the candidate
    farthest from every point already chosen and from its own other
    images, so no seed starts near a rotation axis.  ``_LLOYD_STEPS``
    Lloyd steps on the orbit then centre them: each of
    ``fibonacci_directions(_LLOYD_SAMPLES)`` goes to its nearest point,
    is turned back into that point's seed frame, and each seed moves
    to the normalized mean of its samples (Du, Faber & Gunzburger,
    SIAM Review 41, 1999).  Built on first use, cached per m and
    read-only.
    """
    return _orbit_design(max(1, round(n / len(_icosahedral_rotations()))))


@functools.cache
def _orbit_design(m: int) -> np.ndarray:
    rotations = _icosahedral_rotations()
    candidates = fibonacci_directions(_SEED_CANDIDATES)
    # Largest cosine of each candidate to a chosen point or to its own
    # other images: the seed minimizes it.
    nearest = np.full(len(candidates), -1.0)
    for rotation in rotations[1:]:
        np.maximum(nearest, ((candidates @ rotation) * candidates).sum(1),
                   out=nearest)
    seeds = np.empty((m, 3))
    for i in range(m):
        seeds[i] = candidates[np.argmin(nearest)]
        np.maximum(nearest, (candidates @ (rotations @ seeds[i]).T).max(1),
                   out=nearest)
    samples = fibonacci_directions(_LLOYD_SAMPLES)
    back = np.empty_like(samples)
    for _ in range(_LLOYD_STEPS):
        _, owner = cKDTree(_orbit_points(seeds, np.arange(len(rotations)))
                           ).query(samples)
        turn, seed = np.divmod(owner, m)
        order = np.argsort(turn, kind="stable")
        ends = np.searchsorted(turn[order], np.arange(len(rotations) + 1))
        for g, rotation in enumerate(rotations):
            mine = order[ends[g]:ends[g + 1]]
            back[mine] = samples[mine] @ rotation
        sums = np.stack([np.bincount(seed, weights=back[:, c], minlength=m)
                         for c in range(3)], axis=1)
        norms = np.linalg.norm(sums, axis=1)[:, None]
        # A seed whose cell caught no sample stays where it is.
        seeds = np.where(norms > 0.0, sums / np.maximum(norms, 1e-300),
                         seeds)
    directions = _orbit_points(seeds, np.arange(len(rotations)))
    directions.setflags(write=False)
    return directions


def _point_array(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    return points


def _orbit_points(reps, rotations):
    """The images of ``reps`` under rotation ids ``rotations``.

    Rotation-major, shape (len(rotations) * len(reps), 3): row g n + i
    is ``_icosahedral_rotations()[rotations[g]]`` applied to ``reps[i]``.
    """
    turns = _icosahedral_rotations()[rotations]
    return (reps @ turns.transpose(0, 2, 1)).reshape(-1, 3)


def _corner_tables(space, coeffs):
    """Current values at the fine-face corners and face divergences.

    On each face the current is affine, so its three corner values fix
    it.  Returns arrays of shape (n_faces, 3 corners, 3 xyz) and
    (n_faces,).
    """
    fine = space.fine
    corners = fine.face_corners
    if coeffs is None:
        return (np.zeros(corners.shape, dtype=complex),
                np.zeros(fine.n_faces, dtype=complex))
    local = (space.local @ np.asarray(coeffs, dtype=complex)).reshape(-1, 3)
    # Per corner, its face's RT0 values (3 functions by 3 components)
    # against the real and imaginary parts of the face's local
    # coefficients, as one batched real product.
    basis = _face_basis(fine, corners, np.arange(fine.n_faces)[:, None])
    values = basis.transpose(0, 1, 3, 2) @ (
        local.view(np.float64).reshape(-1, 1, 3, 2))
    divs = (2.0 * fine.rt0_scale * local).sum(axis=1)
    return values.view(complex)[..., 0], divs


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
    rows hold one column per fine-face corner: 32 bytes per point and
    corner.  The owner keys a store on the surface and the wavenumber;
    the store keys point sets on the exact bytes of their
    representatives and of the rotation ids past the identity, so a set
    without rotations is keyed on its points alone.  Every point's rows
    are kept, the gathered images' too, so a hit runs a miss's products
    on the same chunks.  A point set is kept only while all kept rows
    fit in ``bound`` bytes; one that does not fit is computed afresh on
    every call.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.sets = {}

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes + g.nbytes
                   for chunks in self.sets.values() for a, g in chunks)


def _kernel_rows(points, y, w, k, bary):
    """Corner kernel rows ``(a, g)`` of each chunk of points, in order.

    For a chunk of n points, a = (a_c; a_s) holds the cos and sin rows
    of the kernel e^{ikR} w / R and g = (g_r; g_i) the real and
    imaginary rows of the gradient factor (ik/R - 1/R^2) times the
    kernel, first at the Q quadrature points ``y``.  Each face's points
    are then folded onto its three corners with the rule's barycentric
    table ``bary``, giving rows of shape (2n, 3F) for the F faces.  The
    next chunk overwrites them.
    """
    n_max = min(_CHUNK, len(points))
    per_face = len(bary)
    width = len(y) // per_face * 3
    r = np.empty((n_max, len(y)))
    scratch = np.empty_like(r)
    phase = np.empty(r.shape, dtype=complex)
    a_q = np.empty((2 * n_max, len(y)))
    # The phase is spent once a is formed, so g takes its bytes.
    g_q = phase.view(np.float64).reshape(a_q.shape)
    a, g = np.empty((2 * n_max, width)), np.empty((2 * n_max, width))
    for start in range(0, len(points), _CHUNK):
        x = points[start:start + _CHUNK]
        n = len(x)
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
        a_c, a_s = a_q[:n], a_q[n:2 * n]
        np.multiply(ph.real, weight, out=a_c)
        np.multiply(ph.imag, weight, out=a_s)
        inv_r = np.divide(1.0, dist, out=dist)
        g_r, g_i = g_q[:n], g_q[n:2 * n]
        np.multiply(a_c, inv_r, out=g_r)
        g_r += k * a_s
        g_r *= inv_r
        g_r *= -1.0
        np.multiply(a_s, inv_r, out=g_i)
        np.subtract(k * a_c, g_i, out=g_i)
        g_i *= inv_r
        for rows, out in ((a_q, a), (g_q, g)):
            np.matmul(rows[:2 * n].reshape(-1, per_face), bary,
                      out=out[:2 * n].reshape(-1, 3))
        yield a[:2 * n], g[:2 * n]


class RadiationTables(NamedTuple):
    """What ``_radiate`` multiplies with the kernel rows, for one solution.

    ``m_corners`` and ``j_corners`` are the currents at the fine-face
    corners, shape (n_faces, 3, 3); ``potential`` and ``gradient`` are
    the float tables the kernel rows are multiplied with, one row per
    corner.
    """

    m_corners: np.ndarray
    j_corners: np.ndarray
    potential: np.ndarray
    gradient: np.ndarray


def radiation_tables(solution, rwg, bc) -> RadiationTables:
    """The current tables of ``solution``, built once for any points.

    ``solution.m`` lives in ``rwg`` and ``solution.j`` in ``bc``; pass
    the result as ``tables`` to radiate one solution onto several point
    sets.
    """
    if rwg.fine is not bc.fine:
        raise ValueError("spaces must share the same refined mesh")
    m_v, _ = _corner_tables(rwg, solution.m)
    j_v, j_divs = _corner_tables(bc, solution.j)
    # E is the curl of m plus the potentials of j.  Per corner y, the
    # potential table holds v of j for the kernel, and the gradient
    # table v, y × v of m and div, y·div of j for the gradient kernel g,
    # as with d = x - y, Σ g d × v = x × Σ g v - Σ g y × v and
    # Σ g d div = x Σ g div - Σ g y div.  Every entry is affine on its
    # face, so the corner rows, which fold the quadrature points into
    # the corners, give the quadrature sums.
    y = rwg.fine.face_corners.reshape(-1, 3)
    m_y, j_y = m_v.reshape(-1, 3), j_v.reshape(-1, 3)
    j_div = np.repeat(j_divs, 3)[:, None]
    return RadiationTables(
        m_v, j_v, _float_table([j_y]),
        _float_table([m_y, np.cross(y, m_y), j_div, y * j_div]))


def _corner_gathers(fine, rotations):
    """Per rotation g and corner column c, the column of x that gives
    g x its rows at c.

    Rotation g takes corner c to corner image_g(c), so the rows of g x
    at image_g(c) are those of x at c.  Shape (G, 3F).
    """
    ids = fine.rotations.ids
    at = np.minimum(np.searchsorted(ids, rotations), len(ids) - 1)
    if not np.array_equal(ids[at], rotations):
        raise ValueError("points must form orbits of rotations the refined "
                         "mesh keeps")
    face, corner = fine.corner_images
    image = (3 * face[at][:, :, None] + corner[at]).reshape(len(at), -1)
    gathers = np.empty_like(image)
    np.put_along_axis(gathers, image, np.arange(image.shape[1]), axis=1)
    return gathers


def _blocks(n_reps, n_rotations):
    """``(start, n, first, count)`` of each product, in order.

    A product covers the n representatives from ``start`` (a chunk of
    ``_kernel_rows``) under the ``count`` rotations from ``first``: as
    many as keep it within ``_CHUNK`` points.
    """
    for start in range(0, n_reps, _CHUNK):
        n = min(_CHUNK, n_reps - start)
        step = max(1, _CHUNK // n)
        for first in range(0, n_rotations, step):
            yield start, n, first, min(step, n_rotations - first)


def _orbit_rows(chunks, gathers, n_reps, fresh):
    """The rows of each of ``_blocks``' products, as (a, g) pairs.

    ``chunks`` yields the representatives' rows (``_kernel_rows``), and
    rotation g's rows are theirs gathered by ``gathers[g]``.  Rows are
    held corner-major, so a gather copies whole rows of 2n floats, and
    handed out as (2 n count, 3F) transposed views, rotation by
    rotation; the products read them that way too, faster than in
    point-major order.  With ``fresh`` every product gets rows of its
    own; otherwise the next one overwrites them.
    """
    buffers = None
    for _, n, first, count in _blocks(n_reps, len(gathers)):
        if first == 0:
            base = tuple(np.ascontiguousarray(r.T) for r in next(chunks))
        if fresh or buffers is None:
            size = len(base[0]) * 2 * (n * count if fresh else _CHUNK)
            buffers = np.empty(size), np.empty(size)
        shape = (len(base[0]), count, 2 * n)
        yield tuple(
            np.take(rows, gathers[first:first + count].T, axis=0,
                    mode="clip", out=out[:math.prod(shape)].reshape(shape))
            .reshape(shape[0], -1).T
            for rows, out in zip(base, buffers))


def _radiate(tables, rwg, reps, rotations, k, rows):
    """E of ``m`` and of ``j`` at the orbits of ``reps``, from ``tables``.

    The points are the images of the exterior points ``reps`` under the
    refined mesh's rotation ids ``rotations`` (``_orbit_points``), in
    that order.  Kernel rows are computed for
    ``reps`` only: K(g x, y) = K(x, g^-1 y), and g^-1 maps each
    fine-face corner, with the symmetric rule's points, onto a corner,
    so the rows of g x are those of x gathered by corner.  ``rows``, a
    ``KernelRows`` of this surface and wavenumber, supplies the rows if
    it holds them and keeps them if they fit.
    """
    reps = _point_array(reps)
    rotations = np.asarray(rotations, dtype=np.intp)
    points = _orbit_points(reps, rotations)
    key = reps.tobytes() + rotations[1:].tobytes()
    chunks = None if rows is None else rows.sets.get(key)
    if chunks is None:
        gathers = _corner_gathers(rwg.fine, rotations)
        _reject_near(rwg.mesh, reps)
        pts, wts = rwg.fine.quadrature(_DEGREE)
        # a and g: two (2n, 3F) float arrays per chunk of n points.
        size = 2 * 2 * len(points) * 3 * len(wts) * 8
        keep = rows is not None and rows.nbytes + size <= rows.bound
        chunks = _orbit_rows(
            _kernel_rows(reps, pts.reshape(-1, 3),
                         wts.reshape(-1) / _FOUR_PI, k,
                         triangle_rule(_DEGREE).points),
            gathers, len(reps), fresh=keep)
        if keep:
            chunks = rows.sets[key] = list(chunks)
            for a, g in chunks:
                a.setflags(write=False)
                g.setflags(write=False)

    # Per product, the cos and sin rows against the potential table and
    # the real and imaginary gradient rows against the gradient table;
    # the x-dependent parts then follow for all points at once.
    potential, gradient = tables.potential, tables.gradient
    sizes = (len(rotations), len(reps))
    pot = np.empty((2, *sizes, potential.shape[1]))
    sums = np.empty((2, *sizes, gradient.shape[1]))
    products = _blocks(len(reps), len(rotations))
    for (start, n, first, count), (a, g) in zip(products, chunks):
        block = (slice(None), slice(first, first + count),
                 slice(start, start + n))
        pot[block] = (a @ potential).reshape(count, 2, n, -1).swapaxes(0, 1)
        sums[block] = (g @ gradient).reshape(count, 2, n, -1).swapaxes(0, 1)
    pot = pot.reshape(2, len(points), potential.shape[1]).view(complex)
    sums = sums.reshape(2, len(points), gradient.shape[1]).view(complex)
    pot = pot[0] + 1j * pot[1]
    sums = sums[0] + 1j * sums[1]
    curl = np.cross(points, sums[:, 0:3]) - sums[:, 3:6]
    charge = points * sums[:, 6:7] - sums[:, 7:10]
    return -curl, (1j / k) * (k * k * pot + charge)


def _float_table(columns):
    """Columns side by side, as the float view the products read.

    Complex even for real currents: the view holds the real and
    imaginary parts of each column next to each other.
    """
    return np.concatenate(columns, axis=1).astype(
        complex, copy=False).view(np.float64)


def radiate_arrays(solution, rwg, bc, points, *, rows=None, tables=None,
                   rotations=None):
    """Electric field of a solution at exterior points.

    ``solution.m`` radiates through the curl of its potential in the
    RWG space, ``solution.j`` through the scaled electric-current
    potentials in the BC space; a missing ``j`` contributes nothing.
    ``rows`` is an optional ``KernelRows`` store of this surface and
    wavenumber, and ``tables`` the solution's ``radiation_tables``, built
    here if not given.  ``rotations``, ids of rotations the refined
    mesh keeps with the identity first, says that ``points`` are the
    images of their first ``len(points) / len(rotations)`` rows under
    them, rotation-major and exact (``_orbit_points``); kernel rows are
    then computed for those rows only.  Returns a complex array of
    shape ``(n_points, 3)``.
    """
    if tables is None:
        tables = radiation_tables(solution, rwg, bc)
    points = _point_array(points)
    rotations = _IDENTITY if rotations is None else np.asarray(rotations)
    reps = points[:len(points) // len(rotations)]
    if not (len(points) == len(rotations) * len(reps) and np.array_equal(
            points, _orbit_points(reps, rotations))):
        raise ValueError("points are not the orbits of their first rows")
    e_m, e_j = _radiate(tables, rwg, reps, rotations,
                        float(solution.wavenumber), rows)
    return e_j + e_m


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
                n_points: int = 200, *, rows=None,
                tables=None) -> ErrorCurve:
    """Relative L2 field error on concentric evaluation spheres.

    ``radii`` are offsets from the surface in wavelengths; every sphere
    is sampled with the same deterministic direction set,
    ``_orbit_directions(n_points)``: 60 max(1, round(n_points / 60))
    directions in whole icosahedral orbits.  Each is compared against
    the source electric field over all vector components.  If the
    refined mesh keeps all 60 rotations, kernel rows are computed for
    one direction per orbit on each sphere; otherwise every point is
    its own representative.  ``rows`` and ``tables`` are passed on to
    ``radiate_arrays``.
    """
    k = float(solution.wavenumber)
    if abs(source.ctx.wavenumber - k) > 1e-9 * k:
        raise ValueError("solution and source disagree on the frequency")
    radii = np.asarray(radii, dtype=np.float64)
    wavelength = 2.0 * math.pi / k
    center = _surface_center(rwg.mesh)
    surface_radius = float(
        np.linalg.norm(rwg.mesh.vertices - center, axis=1).max())
    directions = _orbit_directions(n_points)
    group = rwg.fine.rotations.ids
    if len(group) == len(_icosahedral_rotations()):
        directions = directions[:len(directions) // len(group)]
    else:
        group = _IDENTITY
    sphere_radii = surface_radius + radii * wavelength
    reps = (center + sphere_radii[:, None, None] * directions).reshape(-1, 3)
    points = _orbit_points(reps, group)
    e_rec = radiate_arrays(solution, rwg, bc, points, rows=rows,
                           tables=tables, rotations=group)
    e_ref, _ = field_arrays(source, points, magnetic=False)
    # Rotation-major points: (rotation, radius, direction) on each axis.
    shape = (len(group), len(radii), len(directions), 3)
    shells = zip(e_rec.reshape(shape).swapaxes(0, 1),
                 e_ref.reshape(shape).swapaxes(0, 1))
    errors = [np.linalg.norm(rec - ref) / np.linalg.norm(ref)
              for rec, ref in shells]
    return ErrorCurve(radii=radii, errors=np.asarray(errors),
                      formulation=solution.formulation)


def check_love_condition(solution, rwg, bc, interior_points, *, rows=None,
                         tables=None):
    """Worst interior field leak relative to the surface current level.

    Radiates the pair onto points strictly inside the surface and
    normalizes the largest field magnitude by the area-weighted mean
    current magnitude on the surface, so a zero return means the pair
    radiates nothing inward at the sampled points.  Returns
    ``(residual, residual_without_j)`` from one evaluation: the leak of
    the pair, and the leak of ``m`` alone, normalized as if ``j`` were
    missing.  ``rows`` and ``tables`` are as for ``radiate_arrays``.
    """
    if tables is None:
        tables = radiation_tables(solution, rwg, bc)
    e_m, e_j = _radiate(tables, rwg, interior_points, _IDENTITY,
                        float(solution.wavenumber), rows)
    # The mean levels integrate |v| with the rule, so they need v at the
    # quadrature points: the corner values weighted barycentrically.
    bary = triangle_rule(_DEGREE).points
    wts = rwg.fine.quadrature(_DEGREE)[1]
    area = wts.sum()
    mean_m, mean_j = (
        float((np.linalg.norm(bary @ corners, axis=2) * wts).sum() / area)
        for corners in (tables.m_corners, tables.j_corners))
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
