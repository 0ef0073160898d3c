"""Quadrature rules on flat triangles and closed-form static integrals.

Three ingredients used by the operator assembler:

* symmetric Gauss rules in barycentric form (weights sum to one, scaled
  by the physical area on mapping),
* collapsed tensor rules: Gauss-Legendre squares mapped onto a triangle
  with the Jacobian vanishing at its first vertex, which supply the
  orders above the bundled symmetric rules,
* closed-form evaluations of the static potentials int 1/R dA' and
  int r'/R dA' over a flat triangle for an arbitrary observation point
  (the edge-wise log/arctan construction for polygonal domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule in barycentric coordinates, weights sum to 1."""

    points: np.ndarray   # (n, 3) barycentric
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def map_to(self, corners: np.ndarray):
        """Physical points and weights on triangles.

        Parameters
        ----------
        corners : array, shape (..., 3, 3)

        Returns
        -------
        points : array, shape (..., n, 3)
        weights : array, shape (..., n), including the physical area.
        """
        corners = np.asarray(corners, dtype=np.float64)
        pts = np.einsum("qb,...bc->...qc", self.points, corners)
        e1 = corners[..., 1, :] - corners[..., 0, :]
        e2 = corners[..., 2, :] - corners[..., 0, :]
        area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=-1)
        return pts, area[..., None] * self.weights


def _sym_rule(orbits):
    pts, wts = [], []
    for kind, a, w in orbits:
        if kind == "c":
            pts.append([1 / 3, 1 / 3, 1 / 3])
            wts.append(w)
        elif kind == "3":
            b = 1.0 - 2.0 * a
            for p in ([b, a, a], [a, b, a], [a, a, b]):
                pts.append(p)
                wts.append(w)
    return TriangleRule(np.array(pts), np.array(wts))


@lru_cache(maxsize=None)
def _standard_rules():
    return {
        1: _sym_rule([("c", None, 1.0)]),
        2: _sym_rule([("3", 1 / 6, 1 / 3)]),
        4: _sym_rule([("3", 0.445948490915965, 0.223381589678011),
                      ("3", 0.091576213509771, 0.109951743655322)]),
        5: _sym_rule([("c", None, 9 / 40),
                      ("3", 0.470142064105115, 0.132394152788506),
                      ("3", 0.101286507323456, 0.125939180544827)]),
    }


@lru_cache(maxsize=None)
def collapsed_rule(n: int) -> TriangleRule:
    """Tensor Gauss-Legendre rule collapsed onto the triangle.

    ``n * n`` positive-weight points, polynomially exact to degree
    ``n - 1``.  The mapping Jacobian vanishes at the first vertex, so
    the rule also integrates 1/R singularities rooted there accurately
    (Duffy transform).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    u, v = np.meshgrid(x, x, indexing="ij")
    wu, wv = np.meshgrid(w, w, indexing="ij")
    lam = np.stack([1.0 - u, u * (1.0 - v), u * v],
                   axis=-1).reshape(-1, 3)
    weights = (2.0 * u * wu * wv).ravel()
    return TriangleRule(lam, weights)


def triangle_rule(degree: int) -> TriangleRule:
    """Smallest bundled rule exact to the requested polynomial degree."""
    if degree < 1:
        degree = 1
    table = _standard_rules()
    for d in (1, 2, 4, 5):
        if degree <= d:
            return table[d]
    return collapsed_rule(degree + 1)


def subdivide4(corners: np.ndarray) -> np.ndarray:
    """Split triangles into four congruent children, shape (...,4,3,3)."""
    c = np.asarray(corners)
    m01 = 0.5 * (c[..., 0, :] + c[..., 1, :])
    m12 = 0.5 * (c[..., 1, :] + c[..., 2, :])
    m20 = 0.5 * (c[..., 2, :] + c[..., 0, :])
    children = np.stack([
        np.stack([c[..., 0, :], m01, m20], axis=-2),
        np.stack([m01, c[..., 1, :], m12], axis=-2),
        np.stack([m20, m12, c[..., 2, :]], axis=-2),
        np.stack([m01, m12, m20], axis=-2),
    ], axis=-3)
    return children


# -- closed-form static integrals ------------------------------------

def static_moments(corners: np.ndarray, obs: np.ndarray):
    """Closed-form int 1/R dA' and int r'/R dA' over flat triangles.

    Valid for any observation point, including points on the triangle
    itself (the integrals are weakly singular and finite).

    Parameters
    ----------
    corners : array, shape (..., 3, 3)
    obs : array, shape (..., 3)

    Returns
    -------
    i0 : array, shape (...)
        ``int 1/R dA'``.
    i1 : array, shape (..., 3)
        ``int r'/R dA'``.
    """
    c = np.asarray(corners, dtype=np.float64)
    r = np.asarray(obs, dtype=np.float64)
    nv = np.cross(c[..., 1, :] - c[..., 0, :],
                  c[..., 2, :] - c[..., 0, :])
    nhat = nv / np.linalg.norm(nv, axis=-1, keepdims=True)
    h = np.einsum("...c,...c->...", r - c[..., 0, :], nhat)
    rho = r - h[..., None] * nhat
    scale = np.linalg.norm(c[..., 1, :] - c[..., 0, :], axis=-1)

    i0 = np.zeros(c.shape[:-2])
    i1_perp = np.zeros(c.shape[:-2] + (3,))
    beta = np.zeros_like(i0)
    abs_h = np.abs(h)
    tiny = 1e-300
    for i in range(3):
        a = c[..., i, :]
        b = c[..., (i + 1) % 3, :]
        length = np.linalg.norm(b - a, axis=-1)
        that = (b - a) / length[..., None]
        uhat = np.cross(that, nhat)
        lm = np.einsum("...c,...c->...", a - rho, that)
        lp = np.einsum("...c,...c->...", b - rho, that)
        d = np.einsum("...c,...c->...", a - rho, uhat)
        r0sq = d * d + h * h
        rm = np.sqrt(lm * lm + r0sq)
        rp = np.sqrt(lp * lp + r0sq)
        # ln((rp+lp)/(rm+lm)) in a form stable when lm < 0; the edge
        # contribution vanishes with r0 so it can be dropped when the
        # observation point sits on the edge line.
        on_line = r0sq <= (1e-14 * scale) ** 2
        safe_r0sq = np.where(on_line, 1.0, r0sq)
        num = np.where(on_line, 1.0, rp + lp)
        den = np.where(on_line | (lm < 0), 1.0, rm + lm)
        rml = np.where(on_line | (lm >= 0), 1.0, rm - lm)
        f2 = np.where(
            lm >= 0,
            np.log(num / den),
            np.log(num * rml / safe_r0sq))
        f2 = np.where(on_line, 0.0, f2)
        bp = np.arctan(d * lp / (r0sq + abs_h * rp + tiny))
        bm = np.arctan(d * lm / (r0sq + abs_h * rm + tiny))
        i0 = i0 + d * f2
        beta = beta + (bp - bm)
        i1_perp = i1_perp + 0.5 * uhat * (
            r0sq * f2 + lp * rp - lm * rm)[..., None]
    i0 = i0 - abs_h * beta
    i1 = i1_perp + rho * i0[..., None]
    return i0, i1
