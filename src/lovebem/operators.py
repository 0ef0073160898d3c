"""Galerkin matrices of the retarded layer operators.

Dense blocks are assembled on the shared barycentric refinement: every
coarse basis function (RWG or BC) is a sparse combination of fine-mesh
RT0 functions, so a coarse block is a congruence transform of fine-face
moment tables.  The engine walks tiles of fine-face pairs, evaluates
kernel moments against the monomial basis (x, y, z, 1) with a fixed
product rule, and pushes them through the sparse factors without ever
storing a fine-by-fine matrix.

Face pairs closer than a few diameters, and every self pair, are
excluded from the tiled pass and integrated separately: the weakly
singular Helmholtz kernel by static extraction with closed-form inner
integrals, the kernel gradient by subdivided product rules.  The
double-layer self term vanishes identically on flat faces.

Sign conventions follow the exp(-i omega t) time dependence with the
outgoing Green function exp(+ikR) / (4 pi R).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    "assemble_blocks",
]

C0 = 299_792_458.0
ETA0 = 376.730313668

_FOUR_PI = 4.0 * math.pi
_KINDS = ("single", "hyper", "double")
# Near pairs per batch; its temporaries set the pipeline's peak memory.
_NEAR_BATCH = 256


@dataclass(frozen=True)
class FrequencyContext:
    """Time-harmonic working point under the exp(-i omega t) convention."""

    frequency: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError("frequency must be positive and finite")

    @classmethod
    def from_wavenumber(cls, wavenumber: float) -> "FrequencyContext":
        return cls(wavenumber * C0 / (2.0 * math.pi))

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
    """Quadrature and tiling knobs for the dense assembly engine.

    The defaults balance accuracy against the cost of single-threaded
    assembly; doubling ``regular_degree`` or the subdivision depths is
    the cheap way to check convergence of a result.
    """

    regular_degree: int = 2
    near_degree: int = 4
    static_subdivisions: int = 2
    double_outer_subdivisions: int = 1
    double_inner_subdivisions: int = 2
    near_distance_factor: float = 1.25
    separation_factor: float = 2.0
    tile_size: int = 480


# -- kernels ---------------------------------------------------------

def _gradient_kernel(r: np.ndarray, k: float, floor: float) -> np.ndarray:
    live = r > floor
    safe = np.where(live, r, 1.0)
    vals = np.exp(1j * k * safe) * (1j * k * safe - 1.0) / (_FOUR_PI * safe**3)
    vals[~live] = 0.0
    return vals


def _smooth_remainder(r: np.ndarray, k: float) -> np.ndarray:
    """(exp(ikr) - 1 - ikr) / (4 pi r), series switched near zero."""
    x = k * r
    small = x < 0.02
    safe = np.where(small, 1.0, r)
    direct = (np.exp(1j * k * safe) - 1.0 - 1j * k * safe) / (_FOUR_PI * safe)
    xs = np.where(small, x, 0.0)
    series = (k / _FOUR_PI) * (
        -xs / 2.0 - 1j * xs**2 / 6.0 + xs**3 / 24.0 + 1j * xs**4 / 120.0)
    return np.where(small, series, direct)


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

    With f_a(r) = s_a (r - v_a) / (2 A) on a fine face, a coarse basis
    contributes s_a / (2A) per unit coefficient to the linear part of
    the moment and s_a v_a / (2A) to the constant part; its surface
    charge is s_a / A.  The three maps collect those weights per face.
    """

    def __init__(self, space: BasisSpace) -> None:
        fine = space.fine
        n = fine.n_faces
        rows = np.repeat(np.arange(n), 3)
        cols = fine.face_edges.ravel()
        base = fine.face_edge_signs / (2.0 * fine.face_areas[:, None])
        shape = (n, fine.n_edges)

        def scatter(w: np.ndarray) -> sp.csr_matrix:
            m = sp.coo_matrix((w.ravel(), (rows, cols)), shape=shape)
            return (m.tocsr() @ space.to_fine).tocsr()

        corners = fine.vertices[fine.triangles]
        self.half = scatter(base)
        self.corner = tuple(scatter(base * corners[:, :, c]) for c in range(3))
        self.charge = (2.0 * self.half).tocsr()


# -- tiled far-field moments -----------------------------------------

def _moment_table(vals, phi_t_T, phi_s):
    """Batched 4x4 monomial moments from kernel values (I, J, q, p)."""
    left = np.matmul(phi_t_T[:, None], vals)
    return np.matmul(left, phi_s[None])


def _helmholtz_combos(m4):
    tr = m4[..., 0, 0] + m4[..., 1, 1] + m4[..., 2, 2]
    sv = m4[..., :3, 3]
    svp = m4[..., 3, :3]
    s0 = m4[..., 3, 3]
    return tr, sv, svp, s0


def _gradient_combos(m4):
    w9 = np.stack((
        m4[..., 1, 2] - m4[..., 2, 1],
        m4[..., 2, 0] - m4[..., 0, 2],
        m4[..., 0, 1] - m4[..., 1, 0]), axis=-1)
    d3 = m4[..., :3, 3] - m4[..., 3, :3]
    return w9, d3


def _push_single(w, tr, sv, svp, s0, f, j0, j1):
    half = f.half[j0:j1]
    w[0] += np.asarray(tr @ half)
    for c in range(3):
        corner = f.corner[c][j0:j1]
        w[0] -= np.asarray(sv[..., c] @ corner)
        w[1 + c] += np.asarray(s0 @ corner)
        w[1 + c] -= np.asarray(svp[..., c] @ half)


def _push_double(w, w9, d3, f, j0, j1):
    half = f.half[j0:j1]
    corner = [f.corner[c][j0:j1] for c in range(3)]
    for m in range(3):
        w[0] += np.asarray(w9[..., m] @ corner[m])
        w[1 + m] -= np.asarray(w9[..., m] @ half)
    # v_a . (D x v_b) couples corner weights on both sides
    w[1] += np.asarray(d3[..., 1] @ corner[2]) - np.asarray(d3[..., 2] @ corner[1])
    w[2] += np.asarray(d3[..., 2] @ corner[0]) - np.asarray(d3[..., 0] @ corner[2])
    w[3] += np.asarray(d3[..., 0] @ corner[1]) - np.asarray(d3[..., 1] @ corner[0])


def _fold_left(f, i0, i1, w):
    out = f.half[i0:i1].T @ w[0]
    for c in range(3):
        out += f.corner[c][i0:i1].T @ w[1 + c]
    return np.asarray(out)


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


def _near_face_pairs(fine: TriangleMesh, options: AssemblyOptions):
    """Unordered near pairs (t <= s) with every self pair included.

    Returns the pair array and a mask marking the pairs that share at
    least one vertex (self pairs included); only those see the genuine
    kernel singularity, the rest are merely close.
    """
    cents = fine.face_centroids
    diam = fine.face_diameters
    tree = cKDTree(cents)
    radius = options.near_distance_factor * 2.0 * float(diam.max())
    cand = tree.query_pairs(radius, output_type="ndarray")
    if cand.size:
        gap = np.linalg.norm(cents[cand[:, 0]] - cents[cand[:, 1]], axis=1)
        near = gap <= options.near_distance_factor * (diam[cand[:, 0]] + diam[cand[:, 1]])
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


def _near_lookup(pairs: np.ndarray, n: int) -> sp.csr_matrix:
    t = np.concatenate([pairs[:, 0], pairs[:, 1]])
    s = np.concatenate([pairs[:, 1], pairs[:, 0]])
    m = sp.coo_matrix((np.ones(t.size), (t, s)), shape=(n, n))
    return m.tocsr()


def _validate_separation(fine_t, fine_s, options):
    tree = cKDTree(fine_s.face_centroids)
    dist, _ = tree.query(fine_t.face_centroids, k=1)
    reach = 0.5 * (fine_t.face_diameters.max() + fine_s.face_diameters.max())
    gap = float(dist.min()) - reach
    limit = options.separation_factor * float(
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


def _static_extraction_moments(fine, tp, sq, k, opts, depth):
    """Full 4x4 Helmholtz moments for near face pairs.

    The 1/R part integrates in closed form over the source face, the
    constant ik / (4 pi) part uses exact linear moments, and the smooth
    remainder falls to a plain product rule.
    """
    op_, ow = _subdivided_rule(
        fine.face_corners[tp], depth, opts.near_degree)
    phi_out = _weighted_monomials(op_, ow)
    src = fine.face_corners[sq]
    stat0, stat1 = static_moments(src[:, None, :, :], op_)
    ist = np.concatenate([stat1, stat0[..., None]], axis=-1)
    m = np.matmul(phi_out.transpose(0, 2, 1), ist) / _FOUR_PI

    area_t = fine.face_areas[tp]
    area_s = fine.face_areas[sq]
    mom_t = np.concatenate(
        [area_t[:, None] * fine.face_centroids[tp], area_t[:, None]], axis=1)
    mom_s = np.concatenate(
        [area_s[:, None] * fine.face_centroids[sq], area_s[:, None]], axis=1)
    m = m + (1j * k / _FOUR_PI) * mom_t[:, :, None] * mom_s[:, None, :]

    ip, iw = triangle_rule(opts.near_degree).map_to(src)
    phi_in = _weighted_monomials(ip, iw)
    kern = _smooth_remainder(_pairwise_distance(op_, ip), k)
    m = m + np.matmul(phi_out.transpose(0, 2, 1), np.matmul(kern, phi_in))
    return m


def _double_layer_local(fine, tp, sq, k, floor, opts, outer_depth, inner_depth):
    """Contracted fine RT0 double-layer blocks for close pairs.

    Returns loc[b, a, c] = int int f_a . [(r - r') x f_c] g(R), with
    basis signs and areas folded in.  Callers must not pass coincident
    faces; those vanish by coplanarity and are skipped upstream.
    """
    op_, ow = _subdivided_rule(
        fine.face_corners[tp], outer_depth, opts.near_degree)
    ip, iw = _subdivided_rule(
        fine.face_corners[sq], inner_depth, opts.near_degree)

    def basis(face_ids, pts):
        corners = fine.vertices[fine.triangles[face_ids]]
        scale = fine.face_edge_signs[face_ids] / (
            2.0 * fine.face_areas[face_ids][:, None])
        return scale[:, None, :, None] * (pts[:, :, None, :] - corners[:, None, :, :])

    fa = basis(tp, op_)
    fb = basis(sq, ip)
    # f_a . [(x - y) x f_b] = (f_a x x) . f_b - f_a . (y x f_b), so the
    # kernel couples small per-point tables through one batched product
    ua = np.cross(fa, op_[:, :, None, :])
    vb = np.cross(ip[:, :, None, :], fb)
    gw = _gradient_kernel(_pairwise_distance(op_, ip), k, floor)
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


def _sandwich(left_rows, z, right_rows):
    """left_rows.T @ diag(z) @ right_rows as sparse products."""
    return left_rows.T @ right_rows.multiply(z[:, None])


def _near_single(flt, fr, tp, sq, tr, sv, svp, s0):
    lh = flt.half[tp]
    rh = fr.half[sq]
    acc = _sandwich(lh, tr, rh)
    for c in range(3):
        lc = flt.corner[c][tp]
        rc = fr.corner[c][sq]
        acc = acc - _sandwich(lh, sv[:, c], rc)
        acc = acc - _sandwich(lc, svp[:, c], rh)
        acc = acc + _sandwich(lc, s0, rc)
    return acc


def _near_double(test_space, src_space, fine, tp, sq, loc):
    et = fine.face_edges[tp]
    es = fine.face_edges[sq]
    acc = None
    for a in range(3):
        la = test_space.to_fine[et[:, a]]
        for b in range(3):
            rb = src_space.to_fine[es[:, b]]
            term = _sandwich(la, loc[:, a, b], rb)
            acc = term if acc is None else acc + term
    return acc


def _apply_near(out, reqs, test, flt, fls, pairs, touching, k, floor, opts):
    fine = test.fine
    kinds_present = set()
    for _, kinds in reqs:
        kinds_present.update(kinds)
    tiers = (
        (pairs[touching], opts.static_subdivisions,
         opts.double_outer_subdivisions, opts.double_inner_subdivisions),
        (pairs[~touching], 0, 0, 0))

    for sub, sdepth, odepth, idepth in tiers:
        if not len(sub):
            continue
        tp = sub[:, 0]
        sq = sub[:, 1]
        off = tp != sq

        if kinds_present & {"single", "hyper"}:
            m = np.empty((len(tp), 4, 4), dtype=np.complex128)
            for b0 in range(0, len(tp), _NEAR_BATCH):
                b1 = min(b0 + _NEAR_BATCH, len(tp))
                m[b0:b1] = _static_extraction_moments(
                    fine, tp[b0:b1], sq[b0:b1], k, opts, sdepth)
            tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
            sv = m[:, :3, 3]
            svp = m[:, 3, :3]
            s0 = m[:, 3, 3]
            for ri, (space, kinds) in enumerate(reqs):
                fr = fls[ri]
                if "single" in kinds:
                    acc = _near_single(flt, fr, tp, sq, tr, sv, svp, s0)
                    acc = acc + _near_single(
                        flt, fr, sq[off], tp[off], tr[off], svp[off], sv[off], s0[off])
                    out[ri]["single"] += 1j * acc.toarray()
                if "hyper" in kinds:
                    acc = _sandwich(flt.charge[tp], s0, fr.charge[sq])
                    acc = acc + _sandwich(
                        flt.charge[sq[off]], s0[off], fr.charge[tp[off]])
                    out[ri]["hyper"] += -1j * acc.toarray()

        if "double" in kinds_present and off.any():
            to = tp[off]
            so = sq[off]
            loc = np.empty((len(to), 3, 3), dtype=np.complex128)
            for b0 in range(0, len(to), _NEAR_BATCH):
                b1 = min(b0 + _NEAR_BATCH, len(to))
                loc[b0:b1] = _double_layer_local(
                    fine, to[b0:b1], so[b0:b1], k, floor, opts, odepth, idepth)
            swapped = loc.transpose(0, 2, 1)
            for ri, (space, kinds) in enumerate(reqs):
                if "double" not in kinds:
                    continue
                acc = _near_double(test, space, fine, to, so, loc)
                acc = acc + _near_double(test, space, fine, so, to, swapped)
                out[ri]["double"] += -1.0 * acc.toarray()


# -- public assembly -------------------------------------------------

def assemble_blocks(test, requests, k, options=None):
    """Assemble layer-operator blocks between a test space and sources.

    Parameters
    ----------
    test : BasisSpace
        Space whose functions test the fields.
    requests : sequence of (BasisSpace, kinds)
        Source spaces with the operator kinds wanted for each, where
        kinds is a subset of {"single", "hyper", "double"}.  All source
        spaces must live on one common refined mesh.
    k : float
        Wavenumber.
    options : AssemblyOptions, optional

    Returns
    -------
    list of dict
        One dict per request mapping kind to a dense complex matrix of
        shape (test.n_dofs, source.n_dofs).  "single" is the weighted
        vector potential i <f, G f'>, "hyper" the weighted scalar part
        -i <div f, G div f'>, "double" the rotated kernel-gradient
        coupling -<f, (r - r') x f' g>.
    """
    opts = options if options is not None else AssemblyOptions()
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("wavenumber must be positive and finite")
    reqs = []
    for space, kinds in requests:
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("each request needs at least one kind")
        for kind in kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown operator kind {kind!r}")
        reqs.append((space, kinds))
    if not reqs:
        raise ValueError("no source requests given")
    fine_s = reqs[0][0].fine
    for space, _ in reqs:
        if space.fine is not fine_s:
            raise ValueError("all source spaces must share one refined mesh")
    fine_t = test.fine
    same = fine_t is fine_s
    if not same:
        _validate_separation(fine_t, fine_s, opts)

    rule = triangle_rule(opts.regular_degree)
    pts_t, wts_t = rule.map_to(fine_t.face_corners)
    phi_t = _weighted_monomials(pts_t, wts_t)
    if same:
        pts_s, phi_s = pts_t, phi_t
    else:
        pts_s, wts_s = rule.map_to(fine_s.face_corners)
        phi_s = _weighted_monomials(pts_s, wts_s)

    rmax = math.sqrt(max(
        float(np.max(np.sum(pts_t**2, axis=-1))),
        float(np.max(np.sum(pts_s**2, axis=-1))), 1e-300))
    floor = 100.0 * math.sqrt(np.finfo(np.float64).eps) * rmax

    need_helm = any(kind in ("single", "hyper") for _, kinds in reqs for kind in kinds)
    need_grad = any(kind == "double" for _, kinds in reqs for kind in kinds)

    flt = _Factors(test)
    fls = [_Factors(space) for space, _ in reqs]
    out = [
        {kind: np.zeros((test.n_dofs, space.n_dofs), dtype=np.complex128)
         for kind in kinds}
        for space, kinds in reqs]

    if same:
        pairs, touching = _near_face_pairs(fine_t, opts)
        lookup = _near_lookup(pairs, fine_t.n_faces)
    else:
        pairs = touching = None
        lookup = None

    nt = fine_t.n_faces
    ns = fine_s.n_faces
    tile = max(1, int(opts.tile_size))
    q = pts_t.shape[1]
    p = pts_s.shape[1]
    for i0 in range(0, nt, tile):
        i1 = min(i0 + tile, nt)
        ft_T = np.ascontiguousarray(phi_t[i0:i1].transpose(0, 2, 1))
        xt = pts_t[i0:i1].reshape(-1, 3)
        w = {}
        for ri, (space, kinds) in enumerate(reqs):
            nd = space.n_dofs
            for kind in kinds:
                count = 1 if kind == "hyper" else 4
                w[ri, kind] = [
                    np.zeros((i1 - i0, nd), dtype=np.complex128)
                    for _ in range(count)]
        for j0 in range(0, ns, tile):
            j1 = min(j0 + tile, ns)
            ys = pts_s[j0:j1].reshape(-1, 3)
            r = _pairwise_distance(xt, ys)
            live = r > floor
            safe = np.where(live, r, 1.0)
            phase = np.exp((1j * k) * safe)
            shape4 = (i1 - i0, q, j1 - j0, p)
            if lookup is not None:
                sub = lookup[i0:i1, j0:j1].tocoo()
                zr, zc = sub.row, sub.col
            else:
                zr = None
            fs = phi_s[j0:j1]
            if need_helm:
                vals = phase / (_FOUR_PI * safe)
                vals[~live] = 0.0
                vals = np.ascontiguousarray(
                    vals.reshape(shape4).transpose(0, 2, 1, 3))
                if zr is not None and zr.size:
                    vals[zr, zc] = 0.0
                tr, sv, svp, s0 = _helmholtz_combos(_moment_table(vals, ft_T, fs))
                del vals
                for ri, (space, kinds) in enumerate(reqs):
                    if "single" in kinds:
                        _push_single(w[ri, "single"], tr, sv, svp, s0, fls[ri], j0, j1)
                    if "hyper" in kinds:
                        w[ri, "hyper"][0] += np.asarray(s0 @ fls[ri].charge[j0:j1])
            if need_grad:
                vals = phase * (1j * k * safe - 1.0) / (_FOUR_PI * safe**3)
                vals[~live] = 0.0
                vals = np.ascontiguousarray(
                    vals.reshape(shape4).transpose(0, 2, 1, 3))
                if zr is not None and zr.size:
                    vals[zr, zc] = 0.0
                w9, d3 = _gradient_combos(_moment_table(vals, ft_T, fs))
                del vals
                for ri, (space, kinds) in enumerate(reqs):
                    if "double" in kinds:
                        _push_double(w[ri, "double"], w9, d3, fls[ri], j0, j1)
        for ri, (space, kinds) in enumerate(reqs):
            if "single" in kinds:
                out[ri]["single"] += 1j * _fold_left(flt, i0, i1, w[ri, "single"])
            if "hyper" in kinds:
                out[ri]["hyper"] += -1j * np.asarray(
                    flt.charge[i0:i1].T @ w[ri, "hyper"][0])
            if "double" in kinds:
                out[ri]["double"] += -1.0 * _fold_left(flt, i0, i1, w[ri, "double"])

    if same:
        _apply_near(out, reqs, test, flt, fls, pairs, touching, k, floor, opts)
    return out
