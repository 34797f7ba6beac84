"""Uniform triangular and rectangular partitions of the unit square.

A mesh stores vertices, counterclockwise element cycles, and an edge table
derived from the cycles.  Every edge keeps its vertex pair in ascending
index order; this fixed orientation is what makes edge-based degrees of
freedom single valued across the two elements sharing an interior edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ElementGeometry",
    "Mesh",
    "build_uniform_triangular",
    "build_uniform_rectangular",
    "geometry",
    "dump_mesh",
]

_PARALLELOGRAM_RTOL = 1e-10


@dataclass(frozen=True)
class ElementGeometry:
    """Geometric data of one element.

    normals[i] is the outward unit normal of the side running from local
    vertex i to local vertex i+1 (cyclic); edge_lengths uses the same
    ordering.  diameter is the maximum pairwise vertex distance.
    """

    centroid: np.ndarray
    diameter: float
    area: float
    normals: np.ndarray
    edge_lengths: np.ndarray


class Mesh:
    """Conforming partition of a planar domain into triangles or rectangles.

    Attributes:
        vertices: (nv, 2) float array.
        elements: (ne, 3 or 4) int array of vertex cycles, counterclockwise.
        edges: (nE, 2) int array, each row an ascending vertex pair.
        edge_elements: (nE, 2) int array; column 0 holds the element lying
            left of the ascending direction, column 1 the element lying
            right of it, -1 where no element exists (boundary edges have
            exactly one -1).
        element_edges: (ne, nsides) int array, global edge index per side.
        element_edge_signs: (ne, nsides) int array, +1 where the element
            traverses the side in ascending vertex order, -1 otherwise.
        boundary_edge: (nE,) bool mask.
        inv_h: nominal mesh label 1/h used in convergence reports.
    """

    def __init__(self, vertices, elements, inv_h: int | None = None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] not in (3, 4):
            raise ValueError("elements must be an (ne, 3) or (ne, 4) array")
        self.inv_h = inv_h

        areas = _signed_areas(self.vertices, self.elements)
        if np.any(areas <= 0.0):
            bad = int(np.argmax(areas <= 0.0))
            raise ValueError(f"element {bad} is not counterclockwise")
        verts = self.vertices[self.elements]
        self._diameters = _diameters(verts)
        if self.elements.shape[1] == 4:
            # quadrature and shape classes map the reference square affinely,
            # which is exact only for parallelograms: v0 + v2 = v1 + v3
            skew = np.linalg.norm(verts[:, 0] + verts[:, 2] - verts[:, 1] - verts[:, 3], axis=1)
            bad = np.flatnonzero(skew > _PARALLELOGRAM_RTOL * self._diameters)
            if bad.size:
                raise ValueError(
                    f"element {bad[0]} is not a parallelogram (|v0 + v2 - v1 - v3| = "
                    f"{skew[bad[0]]:.3e}); only parallelogram quadrilaterals are supported"
                )

        ne, w = self.elements.shape
        edge_of = {}
        pairs = []
        left = []
        right = []
        self.element_edges = np.empty((ne, w), dtype=np.int64)
        self.element_edge_signs = np.empty((ne, w), dtype=np.int64)
        for t in range(ne):
            cyc = self.elements[t]
            for s in range(w):
                a, b = int(cyc[s]), int(cyc[(s + 1) % w])
                if a == b:
                    raise ValueError(f"element {t} repeats vertex {a}")
                key = (a, b) if a < b else (b, a)
                idx = edge_of.get(key)
                if idx is None:
                    idx = len(pairs)
                    edge_of[key] = idx
                    pairs.append(key)
                    left.append(-1)
                    right.append(-1)
                sgn = 1 if a < b else -1
                self.element_edges[t, s] = idx
                self.element_edge_signs[t, s] = sgn
                side = left if sgn == 1 else right
                if side[idx] != -1:
                    raise ValueError(f"edge {key} traversed twice in the same direction")
                side[idx] = t
        self.edges = np.array(pairs, dtype=np.int64)
        self.edge_elements = np.column_stack([left, right]).astype(np.int64)
        self.boundary_edge = (self.edge_elements == -1).any(axis=1)

        self._centroids = verts.mean(axis=1)
        self._areas = areas
        d = self.edges
        self._edge_lengths = np.linalg.norm(
            self.vertices[d[:, 1]] - self.vertices[d[:, 0]], axis=1
        )

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def h_max(self) -> float:
        return float(self._diameters.max())

    def element_centroids(self) -> np.ndarray:
        return self._centroids

    def element_areas(self) -> np.ndarray:
        return self._areas

    def element_diameters(self) -> np.ndarray:
        return self._diameters

    def edge_lengths(self) -> np.ndarray:
        return self._edge_lengths


def _signed_areas(vertices, elements):
    v = vertices[elements]
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


def _diameters(verts):
    diff = verts[:, :, None, :] - verts[:, None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(1, 2))


def build_uniform_triangular(n: int) -> Mesh:
    """n x n grid of squares, each cut by its lower-left to upper-right diagonal.

    Produces 2*n**2 congruent right triangles with mesh label 1/h = n.
    """
    if n < 1:
        raise ValueError("subdivision count n must be at least 1")
    t = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def v(i, j):
        return j * (n + 1) + i

    elems = []
    for j in range(n):
        for i in range(n):
            ll, lr = v(i, j), v(i + 1, j)
            ul, ur = v(i, j + 1), v(i + 1, j + 1)
            elems.append((ll, lr, ur))
            elems.append((ll, ur, ul))
    return Mesh(vertices, np.array(elems), inv_h=n)


def build_uniform_rectangular(level: int) -> Mesh:
    """Refinement `level` of the 3 x 2 partition of the unit square.

    Each level quarters every rectangle, so level L has 6*4**L cells of
    size (1/3)/2**L by (1/2)/2**L.  The mesh label is 1/h = 4*2**L.
    """
    if level < 0:
        raise ValueError("refinement level must be non-negative")
    nx, ny = 3 * 2**level, 2 * 2**level
    tx = np.linspace(0.0, 1.0, nx + 1)
    ty = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(tx, ty, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def v(i, j):
        return j * (nx + 1) + i

    elems = []
    for j in range(ny):
        for i in range(nx):
            elems.append((v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)))
    return Mesh(vertices, np.array(elems), inv_h=4 * 2**level)


def geometry(mesh: Mesh, element: int) -> ElementGeometry:
    """Centroid, diameter, area, outward normals, and side lengths of one element."""
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    verts = mesh.vertices[mesh.elements[element]]
    d = np.roll(verts, -1, axis=0) - verts
    lengths = np.linalg.norm(d, axis=1)
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    return ElementGeometry(
        centroid=mesh._centroids[element],
        diameter=float(mesh._diameters[element]),
        area=float(mesh._areas[element]),
        normals=normals,
        edge_lengths=lengths,
    )


def dump_mesh(mesh: Mesh, stream) -> None:
    """Line-oriented text dump: `v x y`, `t i j k` / `q i j k l`, `e a b left right`.

    The left (right) column of an edge record is the element lying left
    (right) of the edge's ascending vertex direction, or -1 if absent.
    """
    for x, y in mesh.vertices:
        stream.write(f"v {x:.17g} {y:.17g}\n")
    tag = "t" if mesh.elements.shape[1] == 3 else "q"
    for cyc in mesh.elements:
        stream.write(tag + " " + " ".join(str(int(i)) for i in cyc) + "\n")
    for (a, b), (lft, rgt) in zip(mesh.edges, mesh.edge_elements):
        stream.write(f"e {a} {b} {lft} {rgt}\n")
