"""Galerkin matrices of the retarded layer operators.

Dense blocks are assembled on the shared barycentric refinement: every
coarse basis function (RWG or BC) is a sparse combination of fine-mesh
RT0 functions, so a coarse block is a congruence transform of fine-face
moment tables.  The engine walks tiles of fine-face pairs, evaluates
kernel moments against the monomial basis (x, y, z, 1) with a fixed
product rule, and pushes them through sparse per-face factors tile by
tile, so the far pairs never form a fine-by-fine matrix.

Face pairs closer than a few diameters, and every self pair, are
excluded from the tiled pass and integrated separately, each kernel
split into a static part and a k-dependent remainder.  The static
parts (1/R with closed-form inner integrals, and the gradient of 1/R
on subdivided product rules) depend only on the mesh, so a
``NearPlan`` keeps them across calls and scales them to similar
meshes; each call integrates the smooth remainders only.  The
double-layer term of two coplanar faces (a self pair, or two children
of one parent face) vanishes identically and is skipped.  Each kind's
near integrals form one sparse matrix among the fine faces' local RT0
functions, on a pattern the ``NearPlan`` keeps, and every request folds
it once through its spaces' ``local`` maps.

A request may name its own test space on the same refined mesh, so
blocks tested by RWG and by BC functions of one surface come from one
sweep over the kernel.

Every generated sphere maps onto itself under the icosahedron's 60
proper rotations, and each rotation turns every basis function into
plus or minus another.  So the far tiles compute the rows of one test
function per rotation orbit only, and every other row follows from
those by a signed permutation (Allgower, Boehmer, Georg & Miranda,
SIAM J. Numer. Anal. 29, 1992).  A mesh without symmetry keeps the
identity alone, and every row is its own orbit.

Sign conventions follow the exp(-i omega t) time dependence with the
outgoing Green function exp(+ikR) / (4 pi R).
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh import TriangleMesh
from .quadrature import static_moments, subdivide4, triangle_rule
from .spaces import BasisSpace
# Not called here; bound because the benchmark's traced run wraps it.
from .spaces import gram_matrix  # noqa: F401

__all__ = [
    "C0",
    "ETA0",
    "AssemblyOptions",
    "FrequencyContext",
    "NearPlan",
    "assemble_blocks",
    "check_clearance",
]

C0 = 299_792_458.0
ETA0 = 376.730313668

_FOUR_PI = 4.0 * math.pi
_KINDS = ("single", "hyper", "double")
# Near pairs per batch.  It bounds the temporaries of one batch's
# integrals, a few MB; the near pass peaks later, in _apply_near's
# fold, where one kind's pair blocks meet the sparse matrix they fill
# on the plan's pattern.
_NEAR_BATCH = 256
# Plane offset, in face diameters, below which two faces count as coplanar.
_COPLANAR_TOL = 1e-10
# Fine faces a side of one far tile.  It changes the blocks only in the
# last bits and sets the far pass's working set, about 144 _TILE**2
# bytes per complex kernel buffer at the default rule: 2.1 MB, about
# one core's L2 cache on the 2-core Xeon it was timed on.
_TILE = 120
# Two faces are near when their centroids are closer than this factor
# times the sum of their diameters.
_NEAR_DISTANCE = 1.25
# Least face gap, in face diameters, between two surfaces of one call.
_SEPARATION = 2.0


@dataclass(frozen=True)
class FrequencyContext:
    """Time-harmonic working point under the exp(-i omega t) convention."""

    frequency: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError("frequency must be positive and finite")

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * self.frequency

    @property
    def wavenumber(self) -> float:
        return self.angular_frequency / C0

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency


@dataclass(frozen=True)
class AssemblyOptions:
    """Quadrature rules of the dense assembly engine.

    ``regular_degree`` sets the far tiles' rule and ``near_degree`` the
    rule on every subtriangle of a near pair.  ``static_subdivisions``
    is the outer depth of the touching pairs' static 1/R moments;
    ``double_outer_subdivisions`` by ``double_inner_subdivisions`` are
    the depths of their static double layer, and the outer one also
    that of their k-dependent remainders.  Close pairs use depth 0.
    Raising any of them checks the convergence of a result.
    """

    regular_degree: int = 2
    near_degree: int = 4
    static_subdivisions: int = 2
    double_outer_subdivisions: int = 1
    double_inner_subdivisions: int = 2


# -- kernels ---------------------------------------------------------

# Below x = kR = _SERIES_SWITCH the closed forms of the near-pair
# remainders lose digits to cancellation, so Taylor series in x take
# over; terms up to x**15 leave a relative error near 1e-15 there.
_SERIES_SWITCH = 0.5
_SMOOTH_SERIES = tuple(1j**m / math.factorial(m) for m in range(2, 16))
_GRADIENT_SERIES = tuple(1j**m * (m - 1) / math.factorial(m)
                         for m in range(2, 16))


def _taylor(x, coeffs):
    """sum_n coeffs[n] x**n by Horner's rule."""
    acc = np.full(x.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


# exp(ix) by table lookup (P. T. P. Tang, ACM TOMS 15(2), 1989):
# x = n 2pi/4096 + rem with n the nearest integer, so |rem| <= pi/4096
# and exp(ix) = exp(i n 2pi/4096) exp(i rem), the first factor from a
# table and the second from short Taylor polynomials.  2pi/4096 is
# split as in Cody & Waite: _PHASE_HI keeps 31 significant bits, so
# n * _PHASE_HI is exact for x < 6400, and _PHASE_LO is the rest.
# Adding _ROUND rounds to an integer held in the low mantissa bits.
_PHASE_SIZE = 4096
_PHASE_HI = 0.0015339807878262945
_PHASE_LO = 5.934668463384953e-14
_PHASE_SCALE = _PHASE_SIZE / (2.0 * math.pi)
_ROUND = 1.5 * 2.0**52
# Elements per pass of _phase, so its temporaries stay in cache.
_PHASE_SLAB = 8192


def _phase_table():
    """exp(i n 2pi/4096) for n < 4096, corrected for the _PHASE_LO part."""
    n = np.arange(_PHASE_SIZE, dtype=np.float64)
    hi, lo = n * _PHASE_HI, n * _PHASE_LO
    cos, sin = np.cos(hi), np.sin(hi)
    return (cos - sin * lo) + 1j * (sin + cos * lo)


_PHASE_TABLE = _phase_table()


def _phase(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(ix) for real x, within 2.5e-16 of the exact value for
    0 <= x <= 6000.

    Writes into ``out``, a C-contiguous complex array of x's shape, if
    given.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for s0 in range(0, flat_x.size, _PHASE_SLAB):
        xs = flat_x[s0:s0 + _PHASE_SLAB]
        shifted = xs * _PHASE_SCALE + _ROUND
        index = shifted.view(np.int64) & (_PHASE_SIZE - 1)
        n = shifted - _ROUND
        rem = xs - n * _PHASE_HI - n * _PHASE_LO
        z = rem * rem
        slab = flat_out[s0:s0 + _PHASE_SLAB]
        slab.real = 1.0 + z * (z * (1.0 / 24.0) - 0.5)
        slab.imag = rem * (1.0 + z * (z * (1.0 / 120.0) - 1.0 / 6.0))
        slab *= _PHASE_TABLE[index]
    return out


def _smooth_remainder(r: np.ndarray, k: float) -> np.ndarray:
    """(exp(ikr) - 1 - ikr) / (4 pi r), series switched near zero."""
    x = k * r
    small = x < _SERIES_SWITCH
    vals = np.empty(r.shape, dtype=np.complex128)
    xs = x[small]
    vals[small] = (k / _FOUR_PI) * xs * _taylor(xs, _SMOOTH_SERIES)
    big = r[~small]
    vals[~small] = ((_phase(k * big) - 1.0 - 1j * k * big)
                    / (_FOUR_PI * big))
    return vals


def _static_gradient(r: np.ndarray, floor: float) -> np.ndarray:
    """-1 / (4 pi r^3): the gradient kernel factor at k = 0."""
    live = r > floor
    safe = np.where(live, r, 1.0)
    return np.where(live, -1.0 / (_FOUR_PI * safe**3), 0.0)


def _gradient_remainder(r: np.ndarray, k: float, floor: float) -> np.ndarray:
    """(exp(ikr) (ikr - 1) + 1) / (4 pi r^3): the gradient kernel factor
    less its static part, series switched near zero."""
    live = r > floor
    x = k * r
    small = live & (x < _SERIES_SWITCH)
    big = live & ~small
    vals = np.zeros(r.shape, dtype=np.complex128)
    xs = x[small]
    vals[small] = (k**3 / _FOUR_PI) * _taylor(xs, _GRADIENT_SERIES) / xs
    rb = r[big]
    vals[big] = ((_phase(k * rb) * (1j * k * rb - 1.0) + 1.0)
                 / (_FOUR_PI * rb**3))
    return vals


def _pairwise_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| between point sets (..., q, 3) and (..., p, 3)."""
    xx = np.einsum("...qc,...qc->...q", x, x)
    yy = np.einsum("...pc,...pc->...p", y, y)
    xy = x @ np.swapaxes(y, -1, -2)
    r2 = xx[..., :, None] + yy[..., None, :] - 2.0 * xy
    return np.sqrt(np.clip(r2, 0.0, None))


def _weighted_monomials(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    phi = np.empty(points.shape[:-1] + (4,))
    phi[..., :3] = points
    phi[..., 3] = 1.0
    return phi * weights[..., None]


# -- sparse congruence factors ---------------------------------------

class _Factors:
    """Sparse maps from coarse coefficients to fine-face moment weights.

    With f_a(r) = c_a (r - v_a) on a fine face, a coarse basis
    contributes c_a per unit coefficient of local function a to the
    linear part of the moment and c_a v_a to the constant part; its
    surface charge is 2 c_a, so the charge map is 2 ``half``.  Each map
    sums a face's three rows of ``space.local`` with those weights.
    """

    def __init__(self, space: BasisSpace) -> None:
        n = space.fine.n_faces
        base = space.fine.rt0_scale
        slots = np.arange(3 * n + 1)

        def row_sums(w: np.ndarray) -> sp.csr_matrix:
            per_face = sp.csr_matrix((w.ravel(), slots[:-1], slots[::3]),
                                     shape=(n, 3 * n))
            return (per_face @ space.local).tocsr()

        corners = space.fine.face_corners
        self.half = row_sums(base)
        self.corner = tuple(row_sums(base * corners[:, :, c]) for c in range(3))

    def rows(self, faces, dofs=None) -> "_Rows":
        """The maps' rows ``faces``, and columns ``dofs`` if given,
        transposed: (dofs, faces) each."""
        def pick(m):
            m = m[faces]
            return (m if dofs is None else m[:, dofs]).T
        return _Rows(pick(self.half), tuple(pick(c) for c in self.corner))


class _Rows(NamedTuple):
    """One tile's slice of a ``_Factors``, ready to multiply from the left."""

    half: sp.csc_matrix
    corner: tuple


# -- tiled far-field moments -----------------------------------------

def _moment_table(vals, phi_t, phi_s):
    """4x4 monomial moments of a kernel tile as two GEMM-shaped products.

    ``vals`` holds the kernel in its natural (I*q, J*p) layout, rows
    test points face by face and columns source points face by face;
    ``phi_t`` is (I, q, 4) and ``phi_s`` is (J, p, 4).  Returns
    m[j, i] = phi_t[i].T @ vals[i*q:(i+1)*q, j*p:(j+1)*p] @ phi_s[j] of
    shape (J, I, 4, 4), the layout the second product leaves.
    """
    n_i, q, _ = phi_t.shape
    n_j, p, _ = phi_s.shape
    left = np.matmul(phi_t.transpose(0, 2, 1), vals.reshape(n_i, q, n_j * p))
    m = np.matmul(left.reshape(n_i * 4, n_j, p).transpose(1, 0, 2), phi_s)
    return m.reshape(n_j, n_i, 4, 4)


# The combinations below are contiguous (J, I) arrays, so the products
# with the transposed sparse factors read them without a copy.

def _helmholtz_combos(m4):
    tr = m4[..., 0, 0] + m4[..., 1, 1] + m4[..., 2, 2]
    sv = [np.ascontiguousarray(m4[..., c, 3]) for c in range(3)]
    svp = [np.ascontiguousarray(m4[..., 3, c]) for c in range(3)]
    s0 = np.ascontiguousarray(m4[..., 3, 3])
    return tr, sv, svp, s0


def _gradient_combos(m4):
    w9 = (m4[..., 1, 2] - m4[..., 2, 1],
          m4[..., 2, 0] - m4[..., 0, 2],
          m4[..., 0, 1] - m4[..., 1, 0])
    d3 = tuple(m4[..., c, 3] - m4[..., 3, c] for c in range(3))
    return w9, d3


def _push_single(w, tr, sv, svp, s0, rows):
    """Fold a tile's single-layer combinations into (N, I) accumulators."""
    w[0] += rows.half @ tr
    for c in range(3):
        corner = rows.corner[c]
        w[0] -= corner @ sv[c]
        w[1 + c] += corner @ s0
        w[1 + c] -= rows.half @ svp[c]


def _push_double(w, w9, d3, rows):
    half, corner = rows.half, rows.corner
    for m in range(3):
        w[0] += corner[m] @ w9[m]
        w[1 + m] -= half @ w9[m]
    # v_a . (D x v_b) couples corner weights on both sides
    w[1] += (corner[2] @ d3[1]) - (corner[1] @ d3[2])
    w[2] += (corner[0] @ d3[2]) - (corner[2] @ d3[0])
    w[3] += (corner[1] @ d3[0]) - (corner[0] @ d3[1])


def _fold_left(rows, w):
    out = rows.half @ w[0].T
    for c in range(3):
        out += rows.corner[c] @ w[1 + c].T
    return np.asarray(out)


# Factors of the three kinds' blocks, as documented in assemble_blocks.
_SIGNS = {"single": 1j, "hyper": -1j, "double": -1.0}


def _apply_far(out, reqs, tiles, fine_s, lookup, k, floor, opts):
    """Add the far pairs to the representatives' rows, tile by tile.

    ``out`` holds, per request and kind, one row per representative of
    its test space; ``tiles`` lists the test faces of each tile, with
    the test space and representatives they serve (``_far_tiles``).
    Source faces go ``_TILE`` at a time, so the kernel buffers and
    moment tables keep one fixed, cache-sized working set whatever the
    meshes' sizes.  ``lookup`` marks the near pairs of a same-surface
    call, which are zeroed here and left to ``_apply_near``; it is None
    across surfaces, where ``check_clearance`` has kept every pair
    ``_SEPARATION`` face diameters apart.  Every buffer is released on
    return, before the near pass allocates its own.
    """
    fine_t = reqs[0].test.fine
    pts_t, wts_t = fine_t.quadrature(opts.regular_degree)
    pts_s, wts_s = fine_s.quadrature(opts.regular_degree)
    phi_t = _weighted_monomials(pts_t, wts_t)
    phi_s = phi_t if fine_s is fine_t else _weighted_monomials(pts_s, wts_s)
    ns = fine_s.n_faces
    q = pts_t.shape[1]
    p = pts_s.shape[1]
    spans = [(j0, min(j0 + _TILE, ns)) for j0 in range(0, ns, _TILE)]
    # Each source map's rows, sliced once per source tile.
    maps = {id(req.factors): req.factors for req in reqs}
    src_rows = {key: [f.rows(slice(j0, j1)) for j0, j1 in spans]
                for key, f in maps.items()}
    # Two buffers take kR and the phase of every tile.
    size = max(len(faces) for faces, _, _ in tiles) * q * min(_TILE, ns) * p
    scaled_buffer = np.empty(size)
    phase_buffer = np.empty(size, dtype=np.complex128)
    for faces, test, reps in tiles:
        mine = [(req, blocks) for req, blocks in zip(reqs, out)
                if req.test is test]
        need_helm = any(kind in ("single", "hyper")
                        for req, _ in mine for kind in req.kinds)
        need_grad = any("double" in req.kinds for req, _ in mine)
        ft = phi_t[faces]
        xt = pts_t[faces].reshape(-1, 3)
        near_rows = None if lookup is None else lookup[faces]
        # (N, I) accumulators: source dofs by test faces of the tile
        w = [
            {kind: [np.zeros((req.space.n_dofs, len(faces)),
                             dtype=np.complex128)
                    for _ in range(1 if kind == "hyper" else 4)]
             for kind in req.kinds}
            for req, _ in mine]
        for jt, (j0, j1) in enumerate(spans):
            r = _pairwise_distance(xt, pts_s[j0:j1].reshape(-1, 3))
            if near_rows is None:
                dead = None
            else:
                # Coinciding points take a unit distance; they and the
                # near pairs get a zero kernel.
                dead = r <= floor
                r[dead] = 1.0
                sub = near_rows[:, j0:j1].tocoo()
                shape4 = (len(faces), q, j1 - j0, p)
                dead.reshape(shape4)[sub.row, :, sub.col] = True
            kr = np.multiply(r, k, out=scaled_buffer[:r.size].reshape(r.shape))
            phase = _phase(kr, out=phase_buffer[:r.size].reshape(r.shape))
            fs = phi_s[j0:j1]
            if need_helm:
                vals = phase / (_FOUR_PI * r)
                if dead is not None:
                    vals[dead] = 0.0
                tr, sv, svp, s0 = _helmholtz_combos(_moment_table(vals, ft, fs))
                del vals
                for (req, _), acc in zip(mine, w):
                    rows = src_rows[id(req.factors)][jt]
                    if "single" in req.kinds:
                        _push_single(acc["single"], tr, sv, svp, s0, rows)
                    if "hyper" in req.kinds:
                        acc["hyper"][0] += rows.half @ s0
            if need_grad:
                # The phase, no longer needed, becomes the gradient
                # kernel in place, slab by slab.
                flat, dist = phase.reshape(-1), r.reshape(-1)
                for b0 in range(0, flat.size, _PHASE_SLAB):
                    part = dist[b0:b0 + _PHASE_SLAB]
                    flat[b0:b0 + _PHASE_SLAB] *= 1j * k * part - 1.0
                    flat[b0:b0 + _PHASE_SLAB] /= _FOUR_PI * part**3
                if dead is not None:
                    phase[dead] = 0.0
                w9, d3 = _gradient_combos(_moment_table(phase, ft, fs))
                for (req, _), acc in zip(mine, w):
                    if "double" in req.kinds:
                        _push_double(acc["double"], w9, d3,
                                     src_rows[id(req.factors)][jt])
        rows = mine[0][0].test_factors.rows(faces, reps)
        for (req, blocks), acc in zip(mine, w):
            for kind in req.kinds:
                # Both sides' charge maps are 2 ``half``.
                fold = (4.0 * np.asarray(rows.half @ acc[kind][0].T)
                        if kind == "hyper" else _fold_left(rows, acc[kind]))
                blocks[kind] += _SIGNS[kind] * fold


# -- rotation orbits -------------------------------------------------

class _Orbits(NamedTuple):
    """Orbits of a test mesh's edges under a call's rotations.

    ``reps`` holds one representative per orbit, ascending.  Edge i is
    the image of representative ``reps[row[i]]`` under the call's
    rotation ``rotation[i]``, the first that takes it there (the
    identity for a representative), which turns the representative's
    function into ``sign[i]`` times edge i's.
    """

    reps: np.ndarray
    row: np.ndarray
    rotation: np.ndarray
    sign: np.ndarray


def _call_rotations(reqs, near):
    """Each space mesh's (perm, sign) under the call's rotations.

    The call keeps the rotations common to all its meshes and, on one
    surface, those that also map ``near``'s pairs onto themselves, so
    the far pairs map onto far pairs.  The identity is always first.
    """
    meshes = {id(space.mesh): space.mesh
              for req in reqs for space in (req.test, req.space)}
    ids = [mesh.rotations.ids for mesh in meshes.values()]
    if near is not None:
        ids.append(near.rotations)
    common = functools.reduce(np.intersect1d, ids)
    maps = {}
    for key, mesh in meshes.items():
        rot = mesh.rotations
        at = np.searchsorted(rot.ids, common)
        maps[key] = (rot.perm[at], rot.sign[at])
    return maps


def _orbits(mesh, perm, sign) -> _Orbits:
    """Orbits of ``mesh``'s edges under rotations ``perm`` (G, edges).

    Each orbit's representative is the member whose midpoint lies
    nearest vertex 0, the lowest index among equals.  Orbits need not
    be free: a rotation may fix an edge, reversed or not.
    """
    n = mesh.n_edges
    v = mesh.vertices
    mid = 0.5 * (v[mesh.edges[:, 0]] + v[mesh.edges[:, 1]])
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), np.linalg.norm(mid - v[0], axis=1)))] = (
        np.arange(n))
    best = perm[np.argmin(rank[perm], axis=0), np.arange(n)]
    reps = np.unique(best)
    rotation = np.argmax(perm[:, best] == np.arange(n), axis=0)
    return _Orbits(reps, np.searchsorted(reps, best), rotation,
                   sign[rotation, best])


def _far_tiles(reqs, orbits):
    """Test faces of the far tiles, each with the space it tests.

    A test space's tiles take, ``_TILE`` at a time and in ascending
    order, the fine faces that support its representatives.  So a
    row's far part sums the same tiles in the same order whatever
    other requests share the call, and keeps its bits.  Returns
    (faces, test space, representatives) per tile.
    """
    tiles = []
    for test in {id(req.test): req.test for req in reqs}.values():
        reps = orbits[id(test.mesh)].reps
        faces = np.unique(test.local[:, reps].nonzero()[0] // 3)
        tiles += [(faces[i0:i0 + _TILE], test, reps)
                  for i0 in range(0, len(faces), _TILE)]
    return tiles


def _expand(block, orbits, perm, sign):
    """Every row of a block from its representative's row.

    F[i, perm[g, j]] = s_i sign[g, j] B[r, j] with r, g and s_i the
    representative, rotation and sign that ``orbits`` gives edge i, in
    one assignment that writes every entry once.
    """
    g = orbits.rotation
    rows = block[orbits.row]
    rows *= orbits.sign[:, None] * sign[g]
    out = np.empty_like(rows)
    out[np.arange(len(g))[:, None], perm[g]] = rows
    return out


# -- near pair detection ---------------------------------------------

def _vertex_sharing_pairs(fine: TriangleMesh) -> np.ndarray:
    n = fine.n_faces
    rows = fine.triangles.ravel()
    cols = np.repeat(np.arange(n), 3)
    inc = sp.coo_matrix(
        (np.ones(rows.size), (rows, cols)),
        shape=(fine.n_vertices, n)).tocsr()
    adj = (inc.T @ inc).tocoo()
    keep = adj.row < adj.col
    return np.stack([adj.row[keep], adj.col[keep]], axis=1)


def _near_face_pairs(fine: TriangleMesh):
    """Unordered near pairs (t <= s) with every self pair included.

    Returns the pair array and a mask marking the pairs that share at
    least one vertex (self pairs included); only those see the genuine
    kernel singularity, the rest are merely close.
    """
    cents = fine.face_centroids
    diam = fine.face_diameters
    tree = cKDTree(cents)
    radius = _NEAR_DISTANCE * 2.0 * float(diam.max())
    cand = tree.query_pairs(radius, output_type="ndarray")
    if cand.size:
        gap = np.linalg.norm(cents[cand[:, 0]] - cents[cand[:, 1]], axis=1)
        near = gap <= _NEAR_DISTANCE * (diam[cand[:, 0]] + diam[cand[:, 1]])
        cand = cand[near]
    touch = _vertex_sharing_pairs(fine)
    n = fine.n_faces
    own = np.arange(n)
    touch_key = np.concatenate([touch[:, 0] * n + touch[:, 1], own * n + own])
    key = np.unique(np.concatenate([
        cand[:, 0] * n + cand[:, 1] if cand.size else np.empty(0, dtype=np.int64),
        touch_key]))
    pairs = np.stack([key // n, key % n], axis=1)
    return pairs, np.isin(key, touch_key)


def _near_pattern(tp: np.ndarray, sq: np.ndarray, n: int) -> sp.csr_matrix:
    """Where the near pairs' 3x3 blocks sit among local RT0 functions.

    Pair p's block L[p] takes rows 3 tp + a and columns 3 sq + b and,
    off the diagonal, also rows 3 sq + b and columns 3 tp + a, since
    every kernel is symmetric under swapping the two faces.  The CSR
    matrix returned, of shape (3n, 3n), holds at each entry its
    position in ``L.ravel()``.
    """
    a = np.arange(3)
    pos = np.arange(9 * len(tp), dtype=np.int32).reshape(-1, 3, 3)
    rows, cols = np.broadcast_arrays(3 * tp[:, None, None] + a[:, None],
                                     3 * sq[:, None, None] + a)
    off = tp != sq
    return sp.coo_matrix(
        (np.concatenate([pos.ravel(), pos[off].ravel()]),
         (np.concatenate([rows.ravel(), cols[off].ravel()]),
          np.concatenate([cols.ravel(), rows[off].ravel()]))),
        shape=(3 * n, 3 * n)).tocsr()


def check_clearance(fine_t, fine_s):
    """Reject surfaces too close for far-only cross-surface quadrature.

    Raises ``ValueError`` when the face gap between the refined meshes
    is below ``_SEPARATION`` face diameters.
    """
    tree = cKDTree(fine_s.face_centroids)
    dist, _ = tree.query(fine_t.face_centroids, k=1)
    reach = 0.5 * (fine_t.face_diameters.max() + fine_s.face_diameters.max())
    gap = float(dist.min()) - reach
    limit = _SEPARATION * float(
        max(fine_t.face_diameters.max(), fine_s.face_diameters.max()))
    if gap < limit:
        raise ValueError(
            "surfaces are too close for far-only quadrature: face gap "
            f"{gap:.3e} is below {limit:.3e}; refine the meshes or move "
            "the surfaces apart")


# -- accurate near integrals -----------------------------------------

def _subdivided_rule(corners: np.ndarray, depth: int, degree: int):
    kids = corners
    lead = corners.shape[0]
    for _ in range(depth):
        kids = subdivide4(kids).reshape(lead, -1, 3, 3)
    rule = triangle_rule(degree)
    pts, wts = rule.map_to(kids)
    return pts.reshape(lead, -1, 3), wts.reshape(lead, -1)


def _coplanar(fine: TriangleMesh, tp: np.ndarray,
              sq: np.ndarray) -> np.ndarray:
    """Mask of the pairs whose source face lies in the test face's plane.

    Every corner of face ``sq`` must sit within ``_COPLANAR_TOL``
    diameters of face ``tp`` off its plane; a self pair is coplanar.
    """
    normal = fine.face_normals[tp]
    offset = fine.face_corners[sq] - fine.face_centroids[tp][:, None, :]
    height = np.abs(np.einsum("pc,pvc->pv", normal, offset)).max(axis=1)
    return height <= _COPLANAR_TOL * fine.face_diameters[tp]


def _static_moments(fine, outer, tp, sq):
    """4x4 moments of 1 / (4 pi R) for near face pairs.

    The inner integral over the source face is closed-form at the
    points of the test faces' ``outer`` rule, per-face points and
    weights as ``_subdivided_rule`` returns them.
    """
    op_ = outer[0][tp]
    phi_out = _weighted_monomials(op_, outer[1][tp])
    src = fine.face_corners[sq]
    stat0, stat1 = static_moments(src[:, None, :, :], op_)
    ist = np.concatenate([stat1, stat0[..., None]], axis=-1)
    return np.matmul(phi_out.transpose(0, 2, 1), ist) / _FOUR_PI


def _helmholtz_moments(fine, outer, inner, tp, sq, k, static):
    """Full 4x4 Helmholtz moments for near face pairs.

    ``static`` holds the 1/R part; the constant ik / (4 pi) part uses
    exact linear moments, and the smooth remainder falls to the test
    faces' ``outer`` rule against the source faces' ``inner`` rule.
    """
    area_t = fine.face_areas[tp]
    area_s = fine.face_areas[sq]
    mom_t = np.concatenate(
        [area_t[:, None] * fine.face_centroids[tp], area_t[:, None]], axis=1)
    mom_s = np.concatenate(
        [area_s[:, None] * fine.face_centroids[sq], area_s[:, None]], axis=1)
    m = static + (1j * k / _FOUR_PI) * mom_t[:, :, None] * mom_s[:, None, :]

    op_, ip = outer[0][tp], inner[0][sq]
    kern = _smooth_remainder(_pairwise_distance(op_, ip), k)
    phi_out = _weighted_monomials(op_, outer[1][tp])
    m = m + np.matmul(phi_out.transpose(0, 2, 1),
                      np.matmul(kern, _weighted_monomials(ip, inner[1][sq])))
    return m


def _rt0(fine, faces, corners, pts):
    """The faces' three RT0 functions at ``pts``, shape (b, q, 3, 3)."""
    scale = fine.rt0_scale[faces]
    return scale[:, None, :, None] * (pts[:, :, None, :] - corners[:, None])


def _double_layer_local(fine, tp, sq, kernel, outer_depth, inner_depth,
                        degree):
    """Contracted fine RT0 double-layer blocks for close pairs.

    Returns loc[b, a, c] = int int f_a . [(r - r') x f_c] kernel(R) on
    the subdivided rules of the two depths, with basis signs and areas
    folded in.  Points are taken relative to the source face's
    centroid, so both terms of the split below stay the size of the
    pair wherever it sits.  Callers skip coplanar pairs, self pairs
    among them: there f_a, f_c and r - r' lie in one plane, so the
    integrand vanishes identically.
    """
    origin = fine.face_centroids[sq][:, None, :]
    cor_t = fine.face_corners[tp] - origin
    cor_s = fine.face_corners[sq] - origin
    op_, ow = _subdivided_rule(cor_t, outer_depth, degree)
    ip, iw = _subdivided_rule(cor_s, inner_depth, degree)
    fa = _rt0(fine, tp, cor_t, op_)
    fb = _rt0(fine, sq, cor_s, ip)
    # f_a . [(x - y) x f_b] = (f_a x x) . f_b - f_a . (y x f_b), so the
    # kernel couples small per-point tables through one batched product
    ua = np.cross(fa, op_[:, :, None, :])
    vb = np.cross(ip[:, :, None, :], fb)
    gw = kernel(_pairwise_distance(op_, ip))
    gw = gw * ow[:, :, None] * iw[:, None, :]
    b = len(tp)
    no = op_.shape[1]
    ni = ip.shape[1]
    gt = np.matmul(gw.transpose(0, 2, 1), fa.reshape(b, no, 9))
    loc = np.einsum("biax,bicx->bac",
                    gt.reshape(b, ni, 3, 3), vb, optimize=True)
    gu = np.matmul(gw.transpose(0, 2, 1), ua.reshape(b, no, 9))
    loc = np.einsum("biax,bicx->bac",
                    gu.reshape(b, ni, 3, 3), fb, optimize=True) - loc
    return loc


def _in_batches(n, shape, block, dtype=np.complex128):
    """Stack ``block(rows)`` over slices of at most _NEAR_BATCH pairs."""
    out = np.empty((n,) + shape, dtype=dtype)
    for b0 in range(0, n, _NEAR_BATCH):
        rows = slice(b0, min(b0 + _NEAR_BATCH, n))
        out[rows] = block(rows)
    return out


def _distance_floor(*points):
    """Distance below which two points count as one: the kernel is 0."""
    rmax = math.sqrt(max(
        max(float(np.max(np.sum(p**2, axis=-1))) for p in points), 1e-300))
    return 100.0 * math.sqrt(np.finfo(np.float64).eps) * rmax


# Powers of the radius by which the 4x4 monomial moments of 1/R grow
# on a scaled mesh: two areas, one inverse length, one length for each
# linear monomial.
_LINEAR = (np.arange(4) < 3).astype(int)
_MOMENT_POWERS = 3 + np.add.outer(_LINEAR, _LINEAR)


class NearPlan:
    """Near face pairs of one refined mesh and their k-independent parts.

    The pairs, their two tiers (pairs sharing a vertex, which see the
    kernel singularity, and merely close ones) and the coplanar masks
    depend only on the mesh.  So do the static parts of the near
    integrals: the 4x4 moments of 1 / (4 pi R), on outer rules of depth
    ``static_subdivisions`` (touching) or 0 (close), and the
    double-layer blocks of -1 / (4 pi R^3), on rules of depths
    ``double_outer_subdivisions`` by ``double_inner_subdivisions``
    (touching) or 0 by 0 (close).  Each is built on first use, on the
    plan's own mesh, and kept read-only.  Every pass that folds them,
    the static one included, then adds only what depends on k.

    ``pairs`` stacks the two tiers, touching first; ``pattern`` places
    their 3x3 blocks (``_near_pattern``) for every pass to fill.

    ``scaled(a)`` gives the plan of the same mesh scaled by ``a``.  It
    shares the pattern and the statics: moments of unit-flux functions
    grow by a**(3 + [i < 3] + [j < 3]), and the double-layer blocks are
    dimensionless.
    """

    def __init__(self, fine: TriangleMesh, options=None) -> None:
        opts = options if options is not None else AssemblyOptions()
        pairs, touching = _near_face_pairs(fine)
        self.fine, self.options, self.scale = fine, opts, 1.0
        both = np.concatenate([pairs, pairs[:, ::-1]])
        self.lookup = sp.csr_matrix((np.ones(len(both)), both.T),
                                    shape=(fine.n_faces, fine.n_faces))
        self.tiers = tuple((pairs[mask, 0], pairs[mask, 1])
                           for mask in (touching, ~touching))
        self.live = tuple(~_coplanar(fine, tp, sq) for tp, sq in self.tiers)
        self.pairs = tuple(np.concatenate(side) for side in zip(*self.tiers))
        self.pattern = _near_pattern(*self.pairs, fine.n_faces)
        self._built = {}

    def scaled(self, scale: float) -> "NearPlan":
        plan = copy.copy(self)
        plan.scale = float(scale)
        return plan

    def check(self, fine: TriangleMesh, options: AssemblyOptions) -> None:
        """Raise unless the plan is that of ``fine`` and ``options``."""
        if options != self.options:
            raise ValueError("near plan was built for other options")
        if not (np.array_equal(fine.triangles, self.fine.triangles)
                and np.allclose(fine.vertices, self.scale * self.fine.vertices,
                                rtol=0.0, atol=1e-12 * self.scale)):
            raise ValueError("near plan belongs to another mesh")

    @property
    def rotations(self) -> np.ndarray:
        """Ids of the mesh's rotations that map the near pairs onto
        themselves, the same for every scaled copy."""
        def build():
            fine, (tp, sq) = self.fine, self.pairs
            rot, n = fine.rotations, fine.n_faces
            own = np.sort(tp * n + sq)
            # A rotation takes an edge's plus face to the plus face of
            # the edge's image, or to its minus face if it reverses it.
            images = np.empty((len(rot.ids), n), dtype=np.int64)
            images[:, fine.edge_faces[:, 0]] = fine.edge_faces[
                rot.perm, np.where(rot.sign > 0, 0, 1)]
            kept = [np.array_equal(own, np.sort(
                np.minimum(face[tp], face[sq]) * n
                + np.maximum(face[tp], face[sq]))) for face in images]
            return rot.ids[kept]
        return self._get("rotations", build)

    def _get(self, key, build):
        if key not in self._built:
            value = build()
            value.setflags(write=False)
            self._built[key] = value
        return self._built[key]

    def moments(self, tier: int) -> np.ndarray:
        """Static moments of the tier's pairs on the plan's own mesh."""
        def build():
            opts = self.options
            depth = opts.static_subdivisions if tier == 0 else 0
            outer = _subdivided_rule(self.fine.face_corners, depth,
                                     opts.near_degree)
            tp, sq = self.tiers[tier]
            return _in_batches(len(tp), (4, 4), lambda rows: _static_moments(
                self.fine, outer, tp[rows], sq[rows]), dtype=np.float64)
        return self._get(("moments", tier), build)

    def double(self, tier: int) -> np.ndarray:
        """Static double-layer blocks of the tier's live pairs."""
        def build():
            opts = self.options
            depths = ((opts.double_outer_subdivisions,
                       opts.double_inner_subdivisions) if tier == 0
                      else (0, 0))
            tp, sq = self.tiers[tier]
            to, so = tp[self.live[tier]], sq[self.live[tier]]
            floor = _distance_floor(self.fine.vertices)
            return _in_batches(len(to), (3, 3), lambda rows: (
                _double_layer_local(
                    self.fine, to[rows], so[rows],
                    lambda r: _static_gradient(r, floor),
                    *depths, opts.near_degree)),
                dtype=np.float64)
        return self._get(("double", tier), build)


def _remainder_depths(opts):
    """Depths of the rules for the touching tier's k-dependent parts.

    Returns the outer depth of the single/hyper remainder and the outer
    and inner depths of the double-layer remainder.  Both remainders
    are smooth where the static parts are singular, so each takes the
    double layer's outer rule against the plain inner rule.
    """
    return (opts.double_outer_subdivisions,
            opts.double_outer_subdivisions, 0)


def _apply_near(out, reqs, fine, near, k, floor, opts):
    """Add the near pairs of both tiers to every request's blocks.

    Static parts come from ``near``; only what depends on k is
    integrated here: the ik / (4 pi) term, the touching tier's
    remainders on the rules of ``_remainder_depths`` and the close
    tier's remainders on the plain rules.  Each kind's 3x3 blocks of
    all pairs fill ``near.pattern`` once, one kind after the other;
    each request folds that matrix once through its spaces' ``local``
    maps.
    """
    kinds_present = {kind for req in reqs for kind in req.kinds}
    helm_outer, grad_outer, grad_inner = _remainder_depths(opts)
    factor = near.scale ** _MOMENT_POWERS
    tp, sq = near.pairs
    # Each tier's pairs, as a slice of the stacked pairs.
    spans = np.cumsum([0] + [len(tier_tp) for tier_tp, _ in near.tiers])
    pattern = near.pattern

    def fold(kind, b):
        mat = sp.csr_matrix((b.ravel()[pattern.data], pattern.indices,
                             pattern.indptr), shape=pattern.shape)
        for req, blocks in zip(reqs, out):
            if kind in req.kinds:
                part = req.test.local.T @ (mat @ req.space.local)
                blocks[kind] += _SIGNS[kind] * part.toarray()

    # One kind at a time, and the moments freed before the first of
    # theirs, so the matrix a kind fills meets no other kind's blocks.
    if "double" in kinds_present:
        double = np.zeros((len(tp), 3, 3), dtype=np.complex128)
        for tier, (tier_tp, tier_sq) in enumerate(near.tiers):
            live = near.live[tier]
            to, so = tier_tp[live], tier_sq[live]
            static = near.double(tier)
            depths = (grad_outer, grad_inner) if tier == 0 else (0, 0)
            double[spans[tier]:spans[tier + 1]][live] = _in_batches(
                len(to), (3, 3), lambda rows: (
                    static[rows] + _double_layer_local(
                        fine, to[rows], so[rows],
                        lambda r: _gradient_remainder(r, k, floor),
                        *depths, opts.near_degree)))
        fold("double", double)
        del double
    if not kinds_present & {"single", "hyper"}:
        return
    m = np.empty((len(tp), 4, 4), dtype=np.complex128)
    plain = fine.quadrature(opts.near_degree)
    for tier, (tier_tp, tier_sq) in enumerate(near.tiers):
        static = near.moments(tier)
        outer = (_subdivided_rule(fine.face_corners, helm_outer,
                                  opts.near_degree)
                 if tier == 0 else plain)
        m[spans[tier]:spans[tier + 1]] = _in_batches(
            len(tier_tp), (4, 4), lambda rows: (
                _helmholtz_moments(fine, outer, plain, tier_tp[rows],
                                   tier_sq[rows], k, static[rows] * factor)))
    c = fine.rt0_scale
    cc = c[tp][:, :, None] * c[sq][:, None, :]
    s0 = m[:, 3, 3, None, None].copy()
    # (r - v_a) . (r' - w_b) against the monomial moments
    v, w = fine.face_corners[tp], fine.face_corners[sq]
    tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    w_sv = np.einsum("pbc,pc->pb", w, m[:, :3, 3])
    v_svp = np.einsum("pac,pc->pa", v, m[:, 3, :3])
    del m
    if "single" in kinds_present:
        single = cc * (
            tr[:, None, None] - w_sv[:, None, :] - v_svp[:, :, None]
            + np.einsum("pac,pbc->pab", v, w) * s0)
        fold("single", single)
        del single
    if "hyper" in kinds_present:
        fold("hyper", 4.0 * cc * s0)


# -- public assembly -------------------------------------------------

@dataclass(frozen=True)
class _Request:
    space: BasisSpace
    kinds: tuple
    test: BasisSpace
    factors: _Factors
    test_factors: _Factors


def _requests(test, requests):
    """Validated requests, each with the sparse factors of both sides."""
    factors = {}

    def factors_of(space):
        if id(space) not in factors:
            factors[id(space)] = _Factors(space)
        return factors[id(space)]

    reqs = []
    for request in requests:
        if len(request) not in (2, 3):
            raise ValueError(
                "a request is (source, kinds) or (source, kinds, test)")
        space, kinds = request[0], tuple(request[1])
        own_test = request[2] if len(request) == 3 else test
        if not kinds:
            raise ValueError("each request needs at least one kind")
        for kind in kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown operator kind {kind!r}")
        if own_test.fine is not test.fine:
            raise ValueError(
                "a request's test space must share the test's refined mesh")
        reqs.append(_Request(space, kinds, own_test, factors_of(space),
                             factors_of(own_test)))
    if not reqs:
        raise ValueError("no source requests given")
    fine_s = reqs[0].space.fine
    for req in reqs:
        if req.space.fine is not fine_s:
            raise ValueError("all source spaces must share one refined mesh")
    return reqs


def assemble_blocks(test, requests, k, options=None, near=None):
    """Assemble layer-operator blocks between test spaces and sources.

    Parameters
    ----------
    test : BasisSpace
        Space whose functions test the fields, unless a request names
        its own.
    requests : sequence of (BasisSpace, kinds) or (BasisSpace, kinds, test)
        Source spaces with the operator kinds wanted for each, where
        kinds is a subset of {"single", "hyper", "double"}, and
        optionally the space that tests them instead of ``test``.  All
        source spaces must live on one common refined mesh, and every
        request's test space on ``test.fine``.  Kernel values, moment
        tables and near-pair integrals are computed once for all
        requests.
    k : float
        Wavenumber.
    options : AssemblyOptions, optional
    near : NearPlan, optional
        Near pairs and static near integrals of ``test.fine`` for
        ``options``, kept across calls.  Without it a same-surface
        call builds them for its own mesh.  Ignored across surfaces.

    The far pairs are computed for one test function per orbit of the
    rotations that every mesh of the call keeps (``TriangleMesh.
    rotations``) and that, on one surface, map the near pairs onto
    themselves (``NearPlan.rotations``); every other row of the far
    part is a signed permutation of its representative's
    (``_expand``).  The near pairs are integrated for every row, since
    their rules are not rotation-invariant.  Each test space's far
    tiles cover its own representatives' supports, so every row has
    the same bits whatever other requests share the call.

    Returns
    -------
    list of dict
        One dict per request mapping kind to a dense complex matrix of
        shape (test.n_dofs, source.n_dofs), with the request's own test
        space if it names one.  "single" is the weighted vector
        potential i <f, G f'>, "hyper" the weighted scalar part
        -i <div f, G div f'>, "double" the rotated kernel-gradient
        coupling -<f, (r - r') x f' g>.
    """
    opts = options if options is not None else AssemblyOptions()
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("wavenumber must be positive and finite")
    reqs = _requests(test, requests)
    fine_t = test.fine
    fine_s = reqs[0].space.fine
    same = fine_t is fine_s
    if not same:
        check_clearance(fine_t, fine_s)

    floor = _distance_floor(fine_t.quadrature(opts.regular_degree)[0],
                            fine_s.quadrature(opts.regular_degree)[0])
    kinds_present = {kind for req in reqs for kind in req.kinds}

    lookup = None
    if same:
        if near is None:
            near = NearPlan(fine_t, opts)
        else:
            near.check(fine_t, opts)
        # Statics first, so the far tiles' temporaries never sit under them.
        for tier in range(2):
            if kinds_present & {"single", "hyper"}:
                near.moments(tier)
            if "double" in kinds_present:
                near.double(tier)
        lookup = near.lookup

    maps = _call_rotations(reqs, near if same else None)
    tested = {id(req.test.mesh): req.test.mesh for req in reqs}
    orbits = {key: _orbits(mesh, *maps[key]) for key, mesh in tested.items()}
    far = [
        {kind: np.zeros((len(orbits[id(req.test.mesh)].reps),
                         req.space.n_dofs), dtype=np.complex128)
         for kind in req.kinds}
        for req in reqs]
    _apply_far(far, reqs, _far_tiles(reqs, orbits), fine_s, lookup, k,
               floor, opts)
    out = [{kind: _expand(block, orbits[id(req.test.mesh)],
                          *maps[id(req.space.mesh)])
            for kind, block in blocks.items()}
           for req, blocks in zip(reqs, far)]
    if same:
        _apply_near(out, reqs, fine_t, near, k, floor, opts)
    return out
