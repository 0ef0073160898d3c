"""Closed triangle-mesh surfaces and their barycentric refinements.

Meshes are flat-facet polyhedral surfaces. Only closed, orientable,
genus-zero surfaces are accepted: the loop/star bookkeeping used by the
rest of the package relies on Euler characteristic 2.

Edge bookkeeping convention: every edge stores its vertex pair with the
lower vertex index first (the reference orientation, tail -> head), and
edges are numbered in lexicographic order of those pairs.  For each edge,
``edge_faces[:, 0]`` is the triangle whose counter-clockwise boundary
traverses the edge tail -> head (called the plus side) and
``edge_faces[:, 1]`` the minus side.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .quadrature import triangle_rule

logger = logging.getLogger(__name__)

# Icosahedron edge length for a unit circumradius.
_ICOSA_EDGE_UNIT = 1.0 / np.sin(0.4 * np.pi)

MAX_SPHERE_LEVEL = 7


class MeshError(Exception):
    """Raised for unreadable, non-manifold, open or unorientable input."""


def _as_points(vertices) -> np.ndarray:
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise MeshError("vertex array must have shape (n, 3)")
    return pts


@dataclass
class TriangleMesh:
    """A closed oriented triangle mesh with a deterministic edge table.

    Use :meth:`from_arrays`, :func:`load_mesh` or
    :func:`generate_sphere_mesh` instead of the bare constructor; they
    run the manifold checks and the orientation repair.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(init=False)
    edge_faces: np.ndarray = field(init=False)

    def __post_init__(self):
        self.vertices = _as_points(self.vertices)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangle array must have shape (n, 3)")
        if self.triangles.min(initial=0) < 0 or \
                self.triangles.max(initial=-1) >= len(self.vertices):
            raise MeshError("triangle vertex index out of range")
        self._build_edges()
        self._check_closed_genus_zero()
        self._cache: dict = {}
        for arr in (self.vertices, self.triangles, self.edges,
                    self.edge_faces):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------

    @classmethod
    def from_arrays(cls, vertices, triangles) -> "TriangleMesh":
        """Build a mesh, repairing triangle winding if needed.

        Orientations are made mutually consistent by flipping triangles
        during a breadth-first walk of the face-adjacency graph, then the
        whole surface is flipped if its signed volume is negative so that
        normals point outward.
        """
        vertices = _as_points(vertices)
        triangles = np.array(triangles, dtype=np.int64)
        triangles = _repair_orientation(vertices, triangles)
        return cls(vertices, triangles)

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
        def build():
            c = self.face_corners
            nv = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
            return nv / np.linalg.norm(nv, axis=1, keepdims=True)
        return self._cached("face_normals", build)

    @property
    def face_areas(self) -> np.ndarray:
        def build():
            c = self.face_corners
            nv = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
            return 0.5 * np.linalg.norm(nv, axis=1)
        return self._cached("face_areas", build)

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

    def _face_edge_tables(self):
        def build():
            tri = self.triangles
            n_v = self.n_vertices
            key_of = {}
            for idx, (a, b) in enumerate(self.edges):
                key_of[a * (n_v + 1) + b] = idx
            fe = np.empty((self.n_faces, 3), dtype=np.int64)
            signs = np.empty((self.n_faces, 3), dtype=np.int64)
            # Local edge a is opposite local corner a.
            for a, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
                ta, he = tri[:, i], tri[:, j]
                lo = np.minimum(ta, he)
                hi = np.maximum(ta, he)
                fe[:, a] = [key_of[k] for k in (lo * (n_v + 1) + hi)]
                signs[:, a] = np.where(ta == lo, 1, -1)
            return fe, signs
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


def _face_basis(mesh: TriangleMesh, points: np.ndarray,
                faces: np.ndarray) -> np.ndarray:
    """Values of the three local RWG functions at points in faces.

    ``points`` has shape ``(..., 3)`` and ``faces`` broadcasts against
    its leading axes; returns shape ``(..., 3 local, 3 xyz)``.
    """
    corners = mesh.vertices[mesh.triangles[faces]]
    scale = mesh.face_edge_signs[faces] / (2.0 * mesh.face_areas[faces])[
        ..., None]
    return scale[..., None] * (points[..., None, :] - corners)


def _repair_orientation(vertices, triangles) -> np.ndarray:
    """Make windings consistent (BFS) and outward (signed volume)."""
    tri = triangles.copy()
    n_f = len(tri)
    # Undirected edge -> incident faces.
    incident: dict = {}
    for t in range(n_f):
        a, b, c = tri[t]
        for u, w in ((a, b), (b, c), (c, a)):
            k = (min(u, w), max(u, w))
            incident.setdefault(k, []).append(t)
    for k, faces in incident.items():
        if len(faces) > 2:
            raise MeshError("non-manifold edge (more than two faces)")
        if len(faces) < 2:
            raise MeshError("open surface (boundary edge found)")

    def directed(t):
        a, b, c = tri[t]
        return {(a, b), (b, c), (c, a)}

    seen = np.zeros(n_f, dtype=bool)
    for root in range(n_f):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            t = queue.popleft()
            for d in list(directed(t)):
                k = (min(d), max(d))
                other = [f for f in incident[k] if f != t]
                if not other:
                    continue
                o = other[0]
                shares_direction = d in directed(o)
                if not seen[o]:
                    if shares_direction:
                        tri[o, 1], tri[o, 2] = tri[o, 2], tri[o, 1]
                    seen[o] = True
                    queue.append(o)
                elif shares_direction:
                    raise MeshError("unorientable surface")
    corners = vertices[tri]
    volume = np.einsum("ij,ij->", corners[:, 0],
                       np.cross(corners[:, 1], corners[:, 2])) / 6.0
    if volume < 0:
        tri[:, [1, 2]] = tri[:, [2, 1]]
    return tri


# -- file readers ----------------------------------------------------

def load_mesh(source) -> TriangleMesh:
    """Read a mesh from an OFF file.

    ``source`` is a path, or the file content itself (anything that
    contains a newline is treated as content).
    """
    vertices, triangles = _parse_off(_read_source(source))
    mesh = TriangleMesh.from_arrays(vertices, triangles)
    logger.debug("loaded OFF mesh: %d vertices, %d faces",
                 mesh.n_vertices, mesh.n_faces)
    return mesh


def _read_source(source) -> str:
    if isinstance(source, Path):
        return source.read_text()
    if isinstance(source, str):
        if "\n" in source:
            return source
        return Path(source).read_text()
    raise MeshError("source must be a path or file content")


def _tokens(text):
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for tok in line.split():
            yield tok


def _parse_off(text):
    toks = _tokens(text)
    try:
        magic = next(toks)
        if magic.upper() != "OFF":
            raise MeshError("not an OFF file")
        n_v, n_f = int(next(toks)), int(next(toks))
        next(toks)  # edge count, ignored
        verts = np.array([[float(next(toks)) for _ in range(3)]
                          for _ in range(n_v)])
        tris = []
        for _ in range(n_f):
            n = int(next(toks))
            if n != 3:
                raise MeshError(f"face with {n} vertices, "
                                "triangles only")
            tris.append([int(next(toks)) for _ in range(3)])
    except StopIteration:
        raise MeshError("truncated OFF file") from None
    except ValueError as exc:
        raise MeshError(f"malformed OFF file: {exc}") from None
    return verts, np.array(tris)


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
        mesh = TriangleMesh.from_arrays(radius * verts, faces)
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
    return TriangleMesh.from_arrays(*_subdivided_icosphere(level))


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
