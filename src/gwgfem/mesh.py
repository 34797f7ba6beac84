"""Conforming triangle and parallelogram meshes, and uniform partitions of the unit square.

Mesh takes any conforming partition into counterclockwise triangles or
parallelograms; the two builders make the uniform ones of the unit square,
numbering their vertices row by row.  A mesh stores vertices,
counterclockwise element cycles, and an edge table derived from the cycles.
Every edge keeps its vertex pair in ascending index order; this fixed
orientation is what makes edge-based degrees of freedom single valued
across the two elements sharing an interior edge.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from ._checks import check_integer, real_array

__all__ = [
    "Mesh",
    "build_uniform_triangular",
    "build_uniform_rectangular",
]

_PARALLELOGRAM_RTOL = 1e-10


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
    """

    def __init__(self, vertices, elements):
        self.vertices = real_array(vertices, "vertices")
        raw = np.asarray(elements)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        # whole-array checks first; the offending row is found only on failure
        if not np.isfinite(self.vertices).all():
            finite = np.isfinite(self.vertices).all(axis=1)
            raise ValueError(f"vertex {int(np.argmin(finite))} is not finite")
        if raw.ndim != 2 or raw.shape[1] not in (3, 4):
            raise ValueError("elements must be an (ne, 3) or (ne, 4) array")
        if raw.shape[0] == 0:
            raise ValueError("mesh has no elements")
        if not np.issubdtype(raw.dtype, np.integer):
            raise ValueError(f"element vertex indices must be integers, got dtype {raw.dtype}")
        nv = self.vertices.shape[0]
        if raw.min() < 0 or raw.max() >= nv:
            bad = int(np.argmax(((raw < 0) | (raw >= nv)).any(axis=1)))
            raise ValueError(
                f"element {bad} has vertex indices outside [0, {nv}): {raw[bad].tolist()}"
            )
        self.elements = raw.astype(np.int64, copy=False)

        # one (ne,) column per vertex and coordinate: every geometric
        # quantity below folds over the w columns in order, never reducing
        # a 2-4-wide row, and each fold is the row reduction bit for bit
        ne, w = self.elements.shape
        x = self.vertices[:, 0][self.elements].T
        y = self.vertices[:, 1][self.elements].T
        after = [(i + 1) % w for i in range(w)]
        areas = 0.5 * reduce(np.add, [x[i] * y[j] - x[j] * y[i] for i, j in enumerate(after)])
        if np.any(areas <= 0.0):
            bad = int(np.argmax(areas <= 0.0))
            raise ValueError(f"element {bad} is not counterclockwise")
        self._diameters = _diameters(x, y)
        if w == 4:
            # quadrature and shape classes map the reference square affinely,
            # which is exact only for parallelograms: v0 + v2 = v1 + v3
            sx = x[0] + x[2] - x[1] - x[3]
            sy = y[0] + y[2] - y[1] - y[3]
            skew = np.sqrt(sx * sx + sy * sy)
            bad = np.flatnonzero(skew > _PARALLELOGRAM_RTOL * self._diameters)
            if bad.size:
                raise ValueError(
                    f"element {bad[0]} is not a parallelogram (|v0 + v2 - v1 - v3| = "
                    f"{skew[bad[0]]:.3e}); only parallelogram quadrilaterals are supported"
                )

        # side s of element t runs a -> b; edges are numbered by first
        # appearance in (t, s) order and stored as ascending pairs.  A
        # positive area rules out a == b, and 0 <= a, b < nv keeps the
        # integer key lo * nv + hi collision-free.
        a = self.elements.ravel()
        b = np.roll(self.elements, -1, axis=1).ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * nv + hi
        # a stable sort keeps equal keys in (t, s) order, so each run of one
        # key starts at that edge's first appearance
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        first = order[starts]
        is_first = np.zeros(a.size, dtype=bool)
        is_first[first] = True
        at = np.flatnonzero(is_first)  # edge i first appears at side at[i]
        number = np.empty(a.size, dtype=np.int64)
        number[at] = np.arange(at.size)
        edge_ids = np.empty(a.size, dtype=np.int64)
        edge_ids[order] = np.repeat(number[first], np.diff(starts, append=a.size))
        self.edges = np.column_stack([lo[at], hi[at]])
        self.element_edges = edge_ids.reshape(ne, w)
        self.element_edge_signs = np.where(a < b, 1, -1).reshape(ne, w)
        # column 0 of edge_elements takes the element traversing the edge in
        # ascending order, column 1 the one traversing it in descending order
        slot = 2 * edge_ids + (a > b)
        twice = np.flatnonzero(np.bincount(slot, minlength=2 * self.n_edges) > 1)
        if twice.size:
            lo_e, hi_e = self.edges[twice[0] // 2]
            raise ValueError(f"edge ({lo_e}, {hi_e}) traversed twice in the same direction")
        owners = np.full(2 * self.n_edges, -1, dtype=np.int64)
        owners[slot] = np.repeat(np.arange(ne, dtype=np.int64), w)
        self.edge_elements = owners.reshape(-1, 2)
        self.boundary_edge = np.minimum(owners[0::2], owners[1::2]) < 0

        # the w vertices summed in order: vertices[elements].mean(axis=1) bit
        # for bit, at a fraction of its cost
        self._centroids = np.column_stack([reduce(np.add, x) / w, reduce(np.add, y) / w])
        self._areas = areas

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


def _diameters(x, y):
    """Largest vertex distance of each polygon; x[i], y[i] are the coordinates of its vertices i."""
    squared = [
        (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 for i, j in itertools.combinations(range(len(x)), 2)
    ]
    return np.sqrt(reduce(np.maximum, squared))


def build_uniform_triangular(n: int) -> Mesh:
    """n x n grid of squares, each cut by its lower-left to upper-right diagonal.

    Produces 2*n**2 congruent right triangles; convergence studies label it 1/h = n.
    """
    check_integer(n, "subdivision count n", 1)
    t = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(t, t, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # lower-left corner of cell (i, j), row-major in j; two triangles per cell
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    elems = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    return Mesh(vertices, elems)


def build_uniform_rectangular(level: int) -> Mesh:
    """Refinement `level` of the 3 x 2 partition of the unit square.

    Each level quarters every rectangle, so level L has 6*4**L cells of
    size (1/3)/2**L by (1/2)/2**L.  Convergence studies label it 1/h = 4*2**L.
    """
    check_integer(level, "refinement level")
    nx, ny = 3 * 2**level, 2 * 2**level
    tx = np.linspace(0.0, 1.0, nx + 1)
    ty = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(tx, ty, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    elems = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
    return Mesh(vertices, elems)
