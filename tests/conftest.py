"""Shared fixtures: small canonical meshes used across the test suite."""
from contextlib import contextmanager

import numpy as np
import pytest

from lovebem import TriangleMesh, generate_sphere_mesh

OCTAHEDRON_OFF = """\
OFF
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""

OCTAHEDRON_GMSH = """\
$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
6
1 1 0 0
2 -1 0 0
3 0 1 0
4 0 -1 0
5 0 0 1
6 0 0 -1
$EndNodes
$Elements
10
1 15 2 0 1 1
2 1 2 0 1 1 2
3 2 2 0 1 1 3 5
4 2 2 0 1 3 2 5
5 2 2 0 1 2 4 5
6 2 2 0 1 4 1 5
7 2 2 0 1 3 1 6
8 2 2 0 1 2 3 6
9 2 2 0 1 4 2 6
10 2 2 0 1 1 4 6
$EndElements
"""


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


@pytest.fixture(scope="session")
def octahedron():
    from lovebem import load_mesh
    return load_mesh(OCTAHEDRON_OFF)


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

    def counted(test, requests, k, options=None):
        calls.append(float(k))
        return real(test, requests, k, options)

    with pytest.MonkeyPatch.context() as patch:
        for module in (operators, formulations):
            patch.setattr(module, "assemble_blocks", counted)
        yield calls


@pytest.fixture(scope="session")
def count_assembly():
    """Context manager yielding the list of assembly wavenumbers."""
    return _counting_assembly
