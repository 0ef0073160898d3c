"""Closed triangle-mesh surfaces and their barycentric refinements.

Meshes are flat-facet polyhedral surfaces, generated here as
icospheres (and an octahedron for the property suite) that are wound
outward by construction.  Only closed, consistently wound, genus-zero
surfaces are accepted: the loop/star bookkeeping used by the rest of
the package relies on Euler characteristic 2.

Edge bookkeeping convention: every edge stores its vertex pair with the
lower vertex index first (the reference orientation, tail -> head), and
edges are numbered in lexicographic order of those pairs.  For each edge,
``edge_faces[:, 0]`` is the triangle whose counter-clockwise boundary
traverses the edge tail -> head (called the plus side) and
``edge_faces[:, 1]`` the minus side.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .quadrature import triangle_rule

logger = logging.getLogger(__name__)

# Icosahedron edge length for a unit circumradius.
_ICOSA_EDGE_UNIT = 1.0 / np.sin(0.4 * np.pi)

MAX_SPHERE_LEVEL = 7


class MeshError(Exception):
    """Raised for malformed, open, non-manifold, inconsistently wound or
    non-genus-zero triangle arrays, and for sphere sizes out of range."""


def _as_points(vertices) -> np.ndarray:
    pts = np.array(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise MeshError("vertex array must have shape (n, 3)")
    return pts


@dataclass
class TriangleMesh:
    """A closed oriented triangle mesh with a deterministic edge table.

    The constructor checks the arrays and rejects, with
    :class:`MeshError`, any surface that is open, non-manifold,
    inconsistently wound or not genus zero.  Winding is taken as given:
    triangles must run counter-clockwise seen from outside.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(init=False)
    edge_faces: np.ndarray = field(init=False)

    def __post_init__(self):
        self.vertices = _as_points(self.vertices)
        self.triangles = np.array(self.triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangle array must have shape (n, 3)")
        if self.triangles.min(initial=0) < 0 or \
                self.triangles.max(initial=-1) >= len(self.vertices):
            raise MeshError("triangle vertex index out of range")
        self._build_edges()
        self._check_closed_genus_zero()
        self._cache: dict = {}
        # Own copies (np.array above), so the caller's arrays stay writeable.
        for arr in (self.vertices, self.triangles, self.edges,
                    self.edge_faces):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------

    def _build_edges(self):
        tri = self.triangles
        # Directed edges in CCW boundary order; face index alongside.
        heads = tri[:, [1, 2, 0]].ravel()
        tails = tri[:, [0, 1, 2]].ravel()
        faces = np.repeat(np.arange(len(tri)), 3)
        lo = np.minimum(tails, heads)
        hi = np.maximum(tails, heads)
        key = lo * (self.vertices.shape[0] + 1) + hi
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq, start, counts = np.unique(key_s, return_index=True,
                                        return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("non-manifold edge (more than two faces)")
        if counts.min(initial=2) < 2:
            raise MeshError("open surface (boundary edge found)")
        n_e = len(uniq)
        self.edges = np.column_stack([lo[order][start], hi[order][start]])
        self.edge_faces = np.empty((n_e, 2), dtype=np.int64)
        # tails == lo means the face traverses the edge in its reference
        # direction, which makes it the plus side.
        first, second = order[start], order[start + 1]
        first_is_plus = tails[first] == lo[first]
        second_is_plus = tails[second] == lo[second]
        if np.any(first_is_plus == second_is_plus):
            raise MeshError("unorientable surface (inconsistent winding)")
        self.edge_faces[:, 0] = np.where(first_is_plus, faces[first],
                                         faces[second])
        self.edge_faces[:, 1] = np.where(first_is_plus, faces[second],
                                         faces[first])

    def _check_closed_genus_zero(self):
        euler = (len(self.vertices) - len(self.edges) + len(self.triangles))
        if euler != 2:
            raise MeshError(
                f"Euler characteristic {euler}, expected 2: only "
                "genus-zero closed surfaces are supported")

    # -- geometry ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.triangles)

    def _cached(self, name, builder):
        if name not in self._cache:
            value = builder()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self._cache[name] = value
        return self._cache[name]

    @property
    def face_corners(self) -> np.ndarray:
        """Vertex coordinates per face, shape (n_faces, 3, 3)."""
        return self._cached("face_corners",
                            lambda: self.vertices[self.triangles])

    @property
    def face_normals(self) -> np.ndarray:
        """Unit outward normals, shape (n_faces, 3)."""
        return self._face_frames()[0]

    @property
    def face_areas(self) -> np.ndarray:
        return self._face_frames()[1]

    def _face_frames(self):
        def build():
            c = self.face_corners
            nv = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
            norm = np.linalg.norm(nv, axis=1)
            return nv / norm[:, None], 0.5 * norm
        return self._cached("face_frames", build)

    @property
    def face_centroids(self) -> np.ndarray:
        return self._cached("face_centroids",
                            lambda: self.face_corners.mean(axis=1))

    @property
    def face_diameters(self) -> np.ndarray:
        """Longest edge per face."""
        def build():
            c = self.face_corners
            d = np.stack([np.linalg.norm(c[:, 1] - c[:, 0], axis=1),
                          np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                          np.linalg.norm(c[:, 0] - c[:, 2], axis=1)])
            return d.max(axis=0)
        return self._cached("face_diameters", build)

    @property
    def edge_lengths(self) -> np.ndarray:
        def build():
            e = self.edges
            return np.linalg.norm(self.vertices[e[:, 1]] -
                                  self.vertices[e[:, 0]], axis=1)
        return self._cached("edge_lengths", build)

    @property
    def face_edges(self) -> np.ndarray:
        """Edge index opposite each local corner, shape (n_faces, 3)."""
        return self._face_edge_tables()[0]

    @property
    def face_edge_signs(self) -> np.ndarray:
        """+1 where the face is the plus side of ``face_edges``."""
        return self._face_edge_tables()[1]

    @property
    def rt0_scale(self) -> np.ndarray:
        """c_a = s_a / (2 A) of the local RT0 functions f_a(r) = c_a (r - v_a)
        on every face, shape (n_faces, 3); 2 c_a is f_a's divergence."""
        return self._cached("rt0_scale", lambda: (
            self.face_edge_signs / (2.0 * self.face_areas[:, None])))

    def _face_edge_tables(self):
        def build():
            # Local edge a runs from corner a + 1 to corner a + 2, so it
            # is opposite corner a.
            tails = np.roll(self.triangles, -1, axis=1)
            heads = np.roll(self.triangles, 1, axis=1)
            return (_edge_ids(self, tails, heads),
                    np.where(tails < heads, 1, -1))
        return self._cached("face_edge_tables", build)

    def quadrature(self, degree: int):
        """The smallest bundled rule exact to ``degree``, on every face.

        Returns points of shape (n_faces, q, 3) and weights of shape
        (n_faces, q) that include the face areas.
        """
        return self._cached(("quadrature", degree), lambda: triangle_rule(
            degree).map_to(self.face_corners))

    def rt0_values(self, degree: int) -> np.ndarray:
        """The three local RT0 functions of every face at its
        ``quadrature(degree)`` points, shape (n_faces, q, 3 local, 3 xyz)."""
        return self._cached(("rt0_values", degree), lambda: _face_basis(
            self, self.quadrature(degree)[0],
            np.arange(self.n_faces)[:, None]))

    def vertex_fans(self):
        """Cyclic edge/face ordering around every vertex.

        Returns a list with one entry per vertex: ``(edge_ids, face_ids)``
        where both arrays run counter-clockwise (seen from outside) and
        ``face_ids[i]`` lies between ``edge_ids[i]`` and
        ``edge_ids[i + 1]``.  The walk starts at the incident face with
        the smallest index so the ordering is deterministic.
        """
        def build():
            tri = self.triangles
            n_v = self.n_vertices
            vertex_faces = [[] for _ in range(n_v)]
            for t, (a, b, c) in enumerate(tri):
                vertex_faces[a].append(t)
                vertex_faces[b].append(t)
                vertex_faces[c].append(t)
            edge_of = {}
            for idx, (a, b) in enumerate(self.edges):
                edge_of[(a, b)] = idx
                edge_of[(b, a)] = idx
            fans = []
            for v in range(n_v):
                inc = sorted(vertex_faces[v])
                start = inc[0]
                edges_out, faces_out = [], []
                t = start
                while True:
                    corners = list(tri[t])
                    i = corners.index(v)
                    a, b = corners[(i + 1) % 3], corners[(i + 2) % 3]
                    # CCW around v inside face (v, a, b): enter along
                    # (v, a), leave along (v, b).
                    edges_out.append(edge_of[(v, a)])
                    faces_out.append(t)
                    leave = edge_of[(v, b)]
                    pair = self.edge_faces[leave]
                    t = int(pair[1] if pair[0] == t else pair[0])
                    if t == start:
                        break
                    if len(faces_out) > len(inc):
                        raise MeshError("broken fan around vertex "
                                        f"{v}")
                fans.append((np.array(edges_out), np.array(faces_out)))
            return fans
        return self._cached("vertex_fans", build)

    @property
    def rotations(self) -> "Rotations":
        """The icosahedron's rotations that map this mesh onto itself.

        Every generated sphere keeps all 60; a mesh without symmetry
        keeps the identity alone.  Kept with the mesh's read-only
        arrays, so the result follows its contents.
        """
        return self._cached("rotations", lambda: _mesh_rotations(self))


def _face_basis(mesh: TriangleMesh, points: np.ndarray,
                faces: np.ndarray) -> np.ndarray:
    """Values of the three local RWG functions at points in faces.

    ``points`` has shape ``(..., 3)`` and ``faces`` broadcasts against
    its leading axes; returns shape ``(..., 3 local, 3 xyz)``.
    """
    corners = mesh.vertices[mesh.triangles[faces]]
    return mesh.rt0_scale[faces][..., None] * (points[..., None, :] - corners)


def _edge_ids(mesh: TriangleMesh, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
    """Edge indices for vertex pairs, relying on the sorted edge table."""
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    stride = mesh.n_vertices + 1
    keys = mesh.edges[:, 0].astype(np.int64) * stride + mesh.edges[:, 1]
    idx = np.searchsorted(keys, a.astype(np.int64) * stride + b)
    return idx


# -- sphere generator ------------------------------------------------

def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


class Rotations(NamedTuple):
    """Rotations that map a mesh onto itself, as signed edge maps.

    ``ids`` index ``_icosahedral_rotations()`` in ascending order, so
    the identity, id 0, comes first.  Rotation ``ids[g]`` takes edge
    ``e`` to edge ``perm[g, e]``; ``sign[g, e]`` is -1 where it
    reverses the edge's lo < hi orientation, so an RWG or BC function
    on ``e`` turns into ``sign[g, e]`` times that on ``perm[g, e]``.
    """

    ids: np.ndarray
    perm: np.ndarray
    sign: np.ndarray


@functools.cache
def _icosahedral_rotations() -> np.ndarray:
    """The 60 proper rotations of ``_icosahedron()``, shape (60, 3, 3).

    Rotation 5 i + j sends vertex 0 to vertex i and the lowest-indexed
    neighbour of vertex 0 to the j-th lowest of vertex i's five, so
    rotation 0 is the identity, set exactly: every mesh keeps it, even
    one far from the origin.
    """
    verts, faces = _icosahedron()

    def neighbours(v):
        return sorted({int(u) for face in faces if v in face for u in face}
                      - {v})

    def frame(a, b):
        u = b - (a @ b) * a
        u /= np.linalg.norm(u)
        return np.column_stack([a, u, np.cross(a, u)])

    source = frame(verts[0], verts[neighbours(0)[0]])
    rotations = np.array([frame(verts[i], verts[j]) @ source.T
                          for i in range(len(verts)) for j in neighbours(i)])
    rotations[0] = np.eye(3)
    rotations.setflags(write=False)
    return rotations


def _mesh_rotations(mesh: TriangleMesh) -> Rotations:
    """Keep the candidate rotations that map vertices onto vertices.

    A vertex matches within 1e-9 of the mesh's extent; a rotation is
    kept when every vertex and every edge has an image in the mesh.
    """
    verts = mesh.vertices
    tol = 1e-9 * float(np.ptp(verts, axis=0).max())
    rotated = verts @ _icosahedral_rotations().transpose(0, 2, 1)
    dist, image = cKDTree(verts).query(rotated, distance_upper_bound=tol)
    ids = np.flatnonzero(np.isfinite(dist).all(axis=1))
    lo, hi = image[ids][:, mesh.edges[:, 0]], image[ids][:, mesh.edges[:, 1]]
    perm = np.minimum(_edge_ids(mesh, lo, hi), mesh.n_edges - 1)
    kept = ((mesh.edges[perm, 0] == np.minimum(lo, hi))
            & (mesh.edges[perm, 1] == np.maximum(lo, hi))).all(axis=1)
    sign = np.where(lo < hi, 1, -1).astype(np.int8)
    return Rotations(ids[kept], perm[kept], sign[kept])


def _octahedron() -> TriangleMesh:
    """The unit octahedron, wound outward."""
    verts = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=np.float64)
    faces = np.array([
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


def generate_sphere_mesh(radius: float,
                         target_edge_length: float) -> TriangleMesh:
    """Icosahedral-subdivision sphere mesh.

    The subdivision level is the smallest one whose longest edge does
    not exceed ``1.5 * target_edge_length``; every vertex sits on the
    sphere to machine precision.  The edge count is 30 * 4**level.

    Raises
    ------
    MeshError
        If the target length is outside ``(0, radius]`` or would need a
        subdivision level beyond ``MAX_SPHERE_LEVEL``.
    """
    if not (radius > 0):
        raise MeshError("radius must be positive")
    if not (0 < target_edge_length <= radius):
        raise MeshError("target edge length must lie in (0, radius]")
    allowed = 1.5 * target_edge_length
    estimate = _ICOSA_EDGE_UNIT * radius
    level = max(0, int(np.ceil(np.log2(estimate / allowed))))
    while True:
        if level > MAX_SPHERE_LEVEL:
            raise MeshError(
                f"subdivision level {level} exceeds cap {MAX_SPHERE_LEVEL} "
                f"for target edge length {target_edge_length}")
        verts, faces = _subdivided_icosphere(level)
        mesh = TriangleMesh(radius * verts, faces)
        if mesh.edge_lengths.max() <= allowed:
            logger.debug("sphere mesh level %d: %d edges", level,
                         mesh.n_edges)
            return mesh
        level += 1


def unit_icosphere(level: int) -> TriangleMesh:
    """The unit sphere mesh that ``generate_sphere_mesh`` scales at ``level``.

    Scaling changes no triangle, so work that depends only on the shape
    of a generated sphere can be done once on this mesh.
    """
    return TriangleMesh(*_subdivided_icosphere(level))


def _subdivided_icosphere(level):
    verts, faces = _icosahedron()
    verts = [v for v in verts]
    for _ in range(level):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                cache[key] = len(verts)
                verts.append(m / np.linalg.norm(m))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c],
                          [ab, bc, ca]]
        faces = np.array(new_faces)
    return np.array(verts), faces


# -- barycentric refinement ------------------------------------------

@dataclass
class BarycentricRefinement:
    """Six-way barycentric refinement of a parent mesh.

    Refined vertices are ordered parent vertices, then edge midpoints
    (one per parent edge, in edge order), then face centroids.  Children
    of parent face ``t`` are faces ``6 t .. 6 t + 5`` of the refined
    mesh and inherit its winding, so the refined mesh describes the
    same polyhedral surface.
    """

    parent: TriangleMesh
    mesh: TriangleMesh
    midpoint_offset: int
    centroid_offset: int

    @property
    def child_faces(self) -> np.ndarray:
        n = self.parent.n_faces
        return np.arange(6 * n, dtype=np.int64).reshape(n, 6)

    def midpoint_vertex(self, edge_id) -> np.ndarray:
        """Refined vertex index of a parent edge midpoint."""
        return self.midpoint_offset + np.asarray(edge_id)


def barycentric_refine(mesh: TriangleMesh) -> BarycentricRefinement:
    """Split every face into six children around its centroid."""
    n_v, n_e, n_f = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] +
                 mesh.vertices[mesh.edges[:, 1]])
    cen = mesh.face_centroids
    verts = np.vstack([mesh.vertices, mid, cen])
    tri = mesh.triangles
    fe = mesh.face_edges
    children = np.empty((n_f, 6, 3), dtype=np.int64)
    for local, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        # Midpoint of the edge from corner i to corner j is the midpoint
        # of the edge opposite corner 3 - i - j.
        m = n_v + fe[:, 3 - i - j]
        children[:, 2 * local, 0] = tri[:, i]
        children[:, 2 * local, 1] = m
        children[:, 2 * local, 2] = n_v + n_e + np.arange(n_f)
        children[:, 2 * local + 1, 0] = m
        children[:, 2 * local + 1, 1] = tri[:, j]
        children[:, 2 * local + 1, 2] = n_v + n_e + np.arange(n_f)
    refined = TriangleMesh(verts, children.reshape(-1, 3))
    return BarycentricRefinement(parent=mesh, mesh=refined,
                                 midpoint_offset=n_v,
                                 centroid_offset=n_v + n_e)
