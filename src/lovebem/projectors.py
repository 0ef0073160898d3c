"""Quasi-Helmholtz coefficient splittings and low-frequency scaling maps."""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ProjectorSet", "ScalingMap", "build_projectors", "build_scaling",
    "verify_limit_property", "save_norm_table",
]

_LONG_KINDS = (np.dtype(np.longdouble), np.dtype(np.clongdouble))


def _wants_extended(*arrays) -> bool:
    return any(np.asarray(a).dtype in _LONG_KINDS for a in arrays)


class _Incidence:
    """Sparse incidence matrix with an extended-precision matvec path.

    The compiled sparse kernels only speak double, so requests carrying
    longdouble data fall back to a COO scatter.  The roundtrip accuracy
    of the k-scaling maps is representation-limited at eps / k, which
    double precision cannot push below 1e-10 near k = 1e-6; callers
    needing the documented 1e-12 algebra pass longdouble vectors.
    """

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.csr = sp.csr_matrix(matrix)
        # Kept, since ``csr.T`` builds a new transpose on every call.
        self._csr_t = self.csr.T.tocsr()
        coo = self.csr.tocoo()
        self._rows = coo.row
        self._cols = coo.col
        self._vals = coo.data.astype(np.longdouble)
        self.shape = self.csr.shape

    def _scatter(self, idx_out, idx_in, x, n_out):
        out = np.zeros((n_out,) + x.shape[1:],
                       dtype=np.result_type(np.longdouble, x.dtype))
        contrib = self._vals.reshape((-1,) + (1,) * (x.ndim - 1)) * x[idx_in]
        np.add.at(out, idx_out, contrib)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if _wants_extended(x):
            return self._scatter(self._rows, self._cols, x, self.shape[0])
        return self.csr @ x

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if _wants_extended(x):
            return self._scatter(self._cols, self._rows, x, self.shape[1])
        return self._csr_t @ x


class _GroundedLaplacian:
    """Pseudo-inverse solves of the graph Laplacian of an incidence map.

    On a connected closed mesh the Laplacian loses exactly one rank to
    the constant vector.  Grounding the first cell restores
    invertibility; the constant shift this leaves in the solution is
    annihilated by the incidence matrix applied afterwards, so callers
    composing incidence @ solve(incidence.T @ x) get the exact
    pseudo-inverse action.
    """

    def __init__(self, incidence: _Incidence) -> None:
        lap = (incidence.csr.T @ incidence.csr).tocsc()
        if lap.shape[0] < 2:
            raise ValueError("incidence matrix must span at least two cells")
        keep = np.arange(1, lap.shape[0])
        self._lap = _Incidence(lap)
        try:
            self._lu = spla.splu(lap[keep][:, keep].tocsc())
        except RuntimeError as exc:
            raise ValueError(
                "Laplacian factorization failed; the mesh graph looks "
                "disconnected") from exc

    def _coarse_step(self, resid: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(resid):
            return (self._lu.solve(np.asarray(resid.real[1:], np.float64))
                    + 1j * self._lu.solve(np.asarray(resid.imag[1:],
                                                     np.float64)))
        return self._lu.solve(np.asarray(resid[1:], np.float64))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        steps = 3 if _wants_extended(rhs) else 2
        out = np.zeros(rhs.shape,
                       dtype=np.result_type(rhs.dtype, np.float64))
        resid = rhs
        for _ in range(steps):
            out[1:] += self._coarse_step(resid).astype(out.dtype)
            resid = rhs - self._lap.matvec(out)
        return out


class ProjectorSet:
    """Orthogonal projectors splitting edge coefficients by charge content.

    ``onto_stars`` keeps the charge-carrying part of a coefficient
    vector (the range of the star incidence matrix), ``onto_loops`` the
    circulating part; each ``*_complement`` removes the other.  The
    appliers accept vectors or matrices (columns projected), preserve
    double or longdouble precision, and never materialize a dense
    projector.
    """

    def __init__(self, loops: sp.spmatrix, stars: sp.spmatrix) -> None:
        if loops.shape[0] != stars.shape[0]:
            raise ValueError("loop and star matrices disagree on edge count")
        self.loops = sp.csr_matrix(loops)
        self.stars = sp.csr_matrix(stars)
        self._loop_inc = _Incidence(self.loops)
        self._star_inc = _Incidence(self.stars)
        self._loop_solver = _GroundedLaplacian(self._loop_inc)
        self._star_solver = _GroundedLaplacian(self._star_inc)

    @property
    def n_edges(self) -> int:
        return self.loops.shape[0]

    def _project(self, inc: _Incidence, solver: _GroundedLaplacian,
                 x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = inc.matvec(solver.solve(inc.rmatvec(x)))
        return out.astype(np.result_type(x.dtype, np.float64), copy=False)

    def onto_stars(self, x: np.ndarray) -> np.ndarray:
        return self._project(self._star_inc, self._star_solver, x)

    def onto_loops(self, x: np.ndarray) -> np.ndarray:
        return self._project(self._loop_inc, self._loop_solver, x)

    def star_complement(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) - self.onto_stars(x)

    def loop_complement(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) - self.onto_loops(x)


def build_projectors(loops: sp.spmatrix, stars: sp.spmatrix) -> ProjectorSet:
    """Projector set from the loop/star matrices of a closed surface."""
    return ProjectorSet(loops, stars)


class ScalingMap:
    """Diagonal-in-subspace frequency scaling of edge coefficients.

    One subspace (the star range on the unknown side, the loop range on
    the test side) is scaled by i sqrt(k) while its complement is scaled
    by 1 / sqrt(k), which rebalances the k versus 1/k growth of the two
    field-operator parts.  The closed-form inverse swaps the factors.

    Outputs follow the input precision; pass longdouble data to resolve
    the roundtrip identity through the 1/k dynamic range (see
    _Incidence).
    """

    def __init__(self, projectors: ProjectorSet, wavenumber: float,
                 scaled_range: str) -> None:
        wavenumber = float(wavenumber)
        if not (math.isfinite(wavenumber) and wavenumber > 0.0):
            raise ValueError("wavenumber must be positive and finite")
        if scaled_range not in ("stars", "loops"):
            raise ValueError("scaled_range must be 'stars' or 'loops'")
        self.projectors = projectors
        self.wavenumber = wavenumber
        self.scaled_range = scaled_range

    def _split(self, x: np.ndarray):
        if self.scaled_range == "stars":
            kept = self.projectors.onto_stars(x)
        else:
            kept = self.projectors.onto_loops(x)
        root_dtype = np.longdouble if _wants_extended(x) else np.float64
        root = np.sqrt(np.asarray(self.wavenumber, dtype=root_dtype))
        return kept, np.asarray(x) - kept, root

    def apply(self, x: np.ndarray) -> np.ndarray:
        kept, rest, root = self._split(x)
        return rest / root + (1j * root) * kept

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        kept, rest, root = self._split(x)
        return root * rest + kept / (1j * root)


def build_scaling(ps_unknown: ProjectorSet, ps_test: ProjectorSet,
                  ctx) -> tuple[ScalingMap, ScalingMap]:
    """Scaling-map pair for the unknown side and the tested side.

    ``ctx`` is a frequency context (anything with a ``wavenumber``
    attribute) or a bare wavenumber in rad/m.
    """
    k = getattr(ctx, "wavenumber", ctx)
    return (ScalingMap(ps_unknown, k, "stars"),
            ScalingMap(ps_test, k, "loops"))


def verify_limit_property(ps_unknown: ProjectorSet, ps_test: ProjectorSet,
                          inner_by_k) -> list[tuple[float, float]]:
    """Loop-to-star coupling norms through the inner interior solve.

    ``inner_by_k`` maps wavenumber to the assembled inner matrix (half
    Gram plus double layer) on the source surface.  For each k the
    spectral norm of the loop-projected inverse restricted to the star
    range is returned; vanishing norms as k decreases are what makes
    the scaled system immune to the low-frequency breakdown.  A
    singular inner matrix yields a NaN entry instead of aborting the
    sweep.
    """
    rows = []
    for k in sorted(inner_by_k):
        inner = np.asarray(inner_by_k[k])
        try:
            inv = np.linalg.inv(inner)
        except np.linalg.LinAlgError:
            rows.append((float(k), float("nan")))
            continue
        narrowed = ps_test.onto_loops(ps_unknown.onto_stars(inv.T).T)
        rows.append((float(k), float(np.linalg.svd(
            narrowed, compute_uv=False)[0])))
    return rows


def save_norm_table(rows, path) -> None:
    """Write (k, norm) rows as a two-column CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "norm"])
        for k, norm in rows:
            writer.writerow([repr(float(k)), repr(float(norm))])
