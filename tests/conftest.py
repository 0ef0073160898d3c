"""Shared fixtures: small canonical meshes used across the test suite."""
from contextlib import contextmanager

import numpy as np
import pytest

from lovebem import TriangleMesh, generate_sphere_mesh
from lovebem.mesh import _octahedron
from lovebem.quadrature import collapsed_rule


def make_torus_mesh(n: int = 4, m: int = 4) -> TriangleMesh:
    """Genus-one grid torus, used to exercise the genus check."""
    big, small = 2.0, 0.7
    verts = []
    for i in range(n):
        u = 2 * np.pi * i / n
        for j in range(m):
            v = 2 * np.pi * j / m
            r = big + small * np.cos(v)
            verts.append([r * np.cos(u), r * np.sin(u),
                          small * np.sin(v)])
    tris = []
    for i in range(n):
        for j in range(m):
            a = i * m + j
            b = ((i + 1) % n) * m + j
            c = ((i + 1) % n) * m + (j + 1) % m
            d = i * m + (j + 1) % m
            tris += [[a, b, c], [a, c, d]]
    return TriangleMesh(np.array(verts), np.array(tris))


def turned(mesh, seed):
    """``mesh`` turned about the origin by a seeded random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return TriangleMesh(mesh.vertices @ (q * np.linalg.det(q)).T,
                        mesh.triangles)


def singular_patch_points(corners, obs, n=16):
    """Reference quadrature for 1/R-type integrands on one triangle.

    Fans the triangle about the in-plane projection of ``obs`` and puts
    a vertex-collapsed rule on each (signed) sub-triangle, so the rule
    stays accurate when ``obs`` lies on or near the patch.

    Returns cartesian ``points (m, 3)`` and signed ``weights (m,)``.
    """
    pts, wts, _ = singular_fans(corners, np.asarray(obs)[None], n)
    return pts, wts


def singular_fans(corners, obs, n=16):
    """``singular_patch_points`` for observation points ``obs (o, 3)``.

    Returns the fans one after the other: ``points (m, 3)``, signed
    ``weights (m,)`` and the row of ``obs`` each point belongs to.
    """
    c = np.asarray(corners, dtype=np.float64)
    r = np.asarray(obs, dtype=np.float64)
    nv = np.cross(c[1] - c[0], c[2] - c[0])
    nhat = nv / np.linalg.norm(nv)
    rho = r - ((r - c[0]) @ nhat)[:, None] * nhat
    # Sub-triangle i of every fan is (rho, c[i], c[i + 1]).
    fan = np.empty((len(r), 3, 3, 3))
    fan[:, :, 0] = rho[:, None]
    fan[:, :, 1] = c
    fan[:, :, 2] = c[[1, 2, 0]]
    sign = np.sign(np.cross(fan[:, :, 1] - fan[:, :, 0],
                            fan[:, :, 2] - fan[:, :, 0]) @ nhat)
    pts, wts = collapsed_rule(n).map_to(fan)
    keep = sign != 0
    owner = np.repeat(np.nonzero(keep)[0], wts.shape[-1])
    return (pts[keep].reshape(-1, 3),
            (sign[..., None] * wts)[keep].reshape(-1), owner)


@pytest.fixture(scope="session")
def octahedron():
    return _octahedron()


@pytest.fixture(scope="session")
def small_sphere():
    """Level-1 icosphere, 120 edges: the workhorse small test mesh."""
    return generate_sphere_mesh(0.04, 0.02)


@contextmanager
def _counting_assembly():
    """Record the wavenumber of every ``assemble_blocks`` call.

    The counter replaces the name in both modules that call it, the
    way the benchmark's traced run wraps it.
    """
    from lovebem import formulations, operators
    real = operators.assemble_blocks
    calls = []

    def counted(test, requests, k, options=None, near=None):
        calls.append(float(k))
        return real(test, requests, k, options, near=near)

    with pytest.MonkeyPatch.context() as patch:
        for module in (operators, formulations):
            patch.setattr(module, "assemble_blocks", counted)
        yield calls


@pytest.fixture(scope="session")
def count_assembly():
    """Context manager yielding the list of assembly wavenumbers."""
    return _counting_assembly
