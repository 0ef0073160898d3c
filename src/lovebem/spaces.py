"""Div-conforming trace spaces on triangulated surfaces.

Rao-Wilton-Glisson (RWG) functions indexed by mesh edges, their
Buffa-Christiansen (BC) duals on the barycentric refinement, and the
loop / star connectivity matrices used to separate solenoidal from
non-solenoidal currents.

Every basis function here is normalised to unit flux through its
defining edge, so expansion coefficients are edge fluxes.  Both coarse
families are represented exactly as RWG expansions on the common
barycentric refinement: :func:`refinement_matrix` and :func:`bc_matrix`
carry coarse coefficients to fine-mesh coefficients, and all quadrature
downstream happens on the fine mesh only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import (BarycentricRefinement, TriangleMesh, _edge_ids,
                   _face_basis, barycentric_refine)

__all__ = [
    "BasisSpace",
    "basis_pair",
    "bc_matrix",
    "build_loop_star",
    "evaluate_rt0",
    "gram_matrix",
    "refinement_matrix",
]


@dataclass(frozen=True, eq=False)
class BasisSpace:
    """A trace space together with its fine-mesh representation.

    Attributes
    ----------
    kind : str
        ``"rwg"`` or ``"bc"``.
    mesh : TriangleMesh
        Mesh whose edges index the degrees of freedom.
    fine : TriangleMesh
        Barycentric refinement shared by the dual pair.
    to_fine : scipy.sparse.csr_matrix
        Shape ``(fine edges, dofs)``; maps coarse coefficients to
        unit-flux RWG coefficients on ``fine``.
    local : scipy.sparse.csr_matrix
        Shape ``(3 fine faces, dofs)``: the rows of ``to_fine`` taken by
        ``fine.face_edges``, so row ``3 f + a`` gives the coefficient of
        the local RT0 function opposite corner ``a`` of fine face ``f``.
        Every fine-face fold and evaluation goes through it.
    """

    kind: str
    mesh: TriangleMesh
    fine: TriangleMesh
    to_fine: sp.csr_matrix

    @property
    def n_dofs(self) -> int:
        return self.to_fine.shape[1]

    @cached_property
    def local(self) -> sp.csr_matrix:
        return self.to_fine[self.fine.face_edges.ravel()]


def basis_pair(mesh: TriangleMesh) -> tuple[BasisSpace, BasisSpace]:
    """RWG space and its BC dual on a shared barycentric refinement."""
    ref = barycentric_refine(mesh)
    rwg = BasisSpace("rwg", mesh, ref.mesh, refinement_matrix(ref))
    bc = BasisSpace("bc", mesh, ref.mesh, bc_matrix(ref))
    return rwg, bc


def refinement_matrix(ref: BarycentricRefinement) -> sp.csr_matrix:
    """Carry unit-flux RWG coefficients onto the barycentric refinement.

    The image of a coarse RWG function is piecewise linear on the fine
    faces with continuous normal component, so it lies exactly in the
    fine RWG span; the fine coefficient on an edge is the flux of the
    coarse function through it, positive from the fine plus-face to the
    fine minus-face.

    Returns
    -------
    scipy.sparse.csr_matrix
        Shape ``(fine edges, coarse edges)``.
    """
    coarse, fine = ref.parent, ref.mesh
    parent_of = np.arange(fine.n_faces, dtype=np.int64) // 6

    mids = 0.5 * (fine.vertices[fine.edges[:, 0]] +
                  fine.vertices[fine.edges[:, 1]])
    tang = fine.vertices[fine.edges[:, 1]] - fine.vertices[fine.edges[:, 0]]
    plus_face = fine.edge_faces[:, 0]
    # unit normal in the plus-face plane, pointing into the minus face
    nu = np.cross(tang, fine.face_normals[plus_face])

    rows, cols, vals = [], [], []
    for e in range(coarse.n_edges):
        f_pm = coarse.edge_faces[e]
        cand = np.unique(fine.face_edges[ref.child_faces[f_pm]].ravel())
        side = np.where(np.isin(parent_of[fine.edge_faces[cand, 0]], f_pm),
                        0, 1)
        p_eval = parent_of[fine.edge_faces[cand, side]]
        sgn = np.where(p_eval == f_pm[0], 1.0, -1.0)
        loc = np.argmax(coarse.face_edges[p_eval] == e, axis=1)
        v_opp = coarse.vertices[coarse.triangles[p_eval, loc]]
        fval = sgn[:, None] * (mids[cand] - v_opp) \
            / (2.0 * coarse.face_areas[p_eval][:, None])
        coef = np.einsum("ec,ec->e", fval, nu[cand])
        keep = np.abs(coef) > 1e-12
        rows.append(cand[keep])
        cols.append(np.full(keep.sum(), e, dtype=np.int64))
        vals.append(coef[keep])

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_edges, coarse.n_edges))
    return mat.tocsr()


def bc_matrix(ref: BarycentricRefinement) -> sp.csr_matrix:
    """Buffa-Christiansen dual functions as fine-mesh RWG expansions.

    The dual function of a coarse edge circulates around the two edge
    endpoints.  Around the head vertex (the larger index) it deposits a
    total charge of +1, split evenly over the fan of fine faces meeting
    there; around the tail it deposits -1 the same way.  The charge
    leaves the head fan through the two fine edges joining the coarse
    edge midpoint to the neighbouring face centroids, half through each,
    and enters the tail fan through the same pair.  Those prescriptions
    fix every fine-edge flux once the flux on the half-edges of the
    coarse edge itself is set to zero.

    Returns
    -------
    scipy.sparse.csr_matrix
        Shape ``(fine edges, coarse edges)``.
    """
    coarse, fine = ref.parent, ref.mesh
    fans = fine.vertex_fans()
    # fine half-edges from each coarse endpoint (lo, hi) to the midpoint
    mids = ref.midpoint_vertex(np.arange(coarse.n_edges))
    halves = _edge_ids(fine, coarse.edges, mids[:, None])

    rows, cols, vals = [], [], []
    for e in range(coarse.n_edges):
        lo, hi = coarse.edges[e]
        col: dict[int, float] = {}
        for v, sigma, rid in ((int(hi), 1.0, halves[e, 1]),
                              (int(lo), -1.0, halves[e, 0])):
            ecyc, fcyc = fans[v]
            twice_n = len(ecyc)
            q = sigma / twice_n
            s = int(np.nonzero(ecyc == rid)[0][0])

            # walk the fan, integrating the per-face charge; the flux
            # through the starting half-edge of the coarse edge is zero
            phi = 0.0
            for j in range(1, twice_n):
                phi += q - (0.5 * sigma if j == 1 else 0.0)
                eid = int(ecyc[(s + j) % twice_n])
                before = fcyc[(s + j - 1) % twice_n]
                orient = 1.0 if fine.edge_faces[eid, 0] == before else -1.0
                col[eid] = col.get(eid, 0.0) + orient * phi
            closure = phi + q - 0.5 * sigma
            if abs(closure) > 1e-12:
                raise AssertionError("fan charge balance broken")

            # outflow through the midpoint-to-centroid edges; both fans
            # see the same pair, with matching flux
            for j in (0, twice_n - 1):
                t = int(fcyc[(s + j) % twice_n])
                loc = int(np.nonzero(fine.triangles[t] == v)[0][0])
                eid = int(fine.face_edges[t, loc])
                orient = 1.0 if fine.edge_faces[eid, 0] == t else -1.0
                val = orient * 0.5 * sigma
                if eid in col and abs(col[eid] - val) > 1e-12:
                    raise AssertionError("transverse flux mismatch")
                col[eid] = val
        ids = sorted(col)
        rows.append(np.array(ids, dtype=np.int64))
        cols.append(np.full(len(ids), e, dtype=np.int64))
        vals.append(np.array([col[i] for i in ids]))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_edges, coarse.n_edges))
    return mat.tocsr()


def build_loop_star(mesh: TriangleMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Loop and star connectivity matrices of the unit-flux RWG space.

    Returns
    -------
    loops : scipy.sparse.csr_matrix
        Shape ``(edges, vertices)``; column ``v`` is the solenoidal
        current circulating around vertex ``v`` (+1 on edges pointing
        at ``v``, -1 on edges leaving it).
    stars : scipy.sparse.csr_matrix
        Shape ``(edges, faces)``; column ``f`` pushes unit flux out of
        face ``f`` (+1 where the face is the plus side).

    On a closed orientable surface ``stars.T @ loops`` vanishes
    identically and each factor loses exactly one rank to a constant
    null vector.
    """
    ne = mesh.n_edges
    arange = np.arange(ne, dtype=np.int64)
    ones = np.ones(ne)

    loops = sp.coo_matrix(
        (np.concatenate([ones, -ones]),
         (np.concatenate([arange, arange]),
          np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]]))),
        shape=(ne, mesh.n_vertices)).tocsr()
    stars = sp.coo_matrix(
        (np.concatenate([ones, -ones]),
         (np.concatenate([arange, arange]),
          np.concatenate([mesh.edge_faces[:, 0], mesh.edge_faces[:, 1]]))),
        shape=(ne, mesh.n_faces)).tocsr()
    return loops, stars


def evaluate_rt0(mesh: TriangleMesh, coeffs: np.ndarray, faces: np.ndarray,
                 points: np.ndarray) -> np.ndarray:
    """Evaluate a unit-flux RWG expansion at points inside given faces.

    Parameters
    ----------
    coeffs : array, shape (edges,) or (edges, k)
        One or several coefficient vectors.
    faces : array of int, shape (...)
        Face containing each evaluation point.
    points : array, shape (..., 3)

    Returns
    -------
    array, shape (..., 3) or (..., k, 3)
    """
    coeffs = np.asarray(coeffs)
    local = np.asarray(coeffs)[mesh.face_edges[faces]]
    basis = _face_basis(mesh, np.asarray(points, dtype=np.float64), faces)
    if coeffs.ndim == 1:
        return np.einsum("...a,...ac->...c", local, basis)
    return np.einsum("...ak,...ac->...kc", local, basis)


def gram_matrix(test: BasisSpace, trial: BasisSpace,
                rotated: bool = False) -> sp.csr_matrix:
    """Gram matrix between two spaces sharing one refinement.

    With ``rotated=True`` the test functions are rotated by the surface
    normal, i.e. entries are ``<n x t_i, s_j>``.
    """
    fine = test.fine
    if fine is not trial.fine:
        raise ValueError("spaces must share the same refined mesh")
    _, wts = fine.quadrature(2)
    basis = fine.rt0_values(2)
    rows = basis
    if rotated:
        rows = np.cross(fine.face_normals[:, None, None, :], basis)
    # one 3x3 block per fine face among its local RT0 functions
    loc = np.einsum("fqac,fqbc,fq->fab", rows, basis, wts)
    faces = np.arange(fine.n_faces)
    per_face = sp.bsr_matrix((loc, faces, np.append(faces, fine.n_faces)),
                             shape=(3 * fine.n_faces, 3 * fine.n_faces))
    return (test.local.T @ per_face @ trial.local).tocsr()
