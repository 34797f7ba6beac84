"""Assembly and solution of the stabilized weak Galerkin scheme.

The discrete problem reads: find u_h = {u0, ub} with ub = Qb g on boundary
edges such that

    sum_T (a grad_g u_h, grad_g v)_T
      + sum_T rho h_T^gamma <Qb u0 - ub, Qb v0 - vb>_{boundary of T}
      = sum_T (f, v0)_T

for all v in the homogeneous weak space.  rho = 0 (no stabilizer) is
admitted; whether the resulting system is solvable then depends on the
degree family, and a singular factorization is reported as such instead of
returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .polybasis import graded_element_rule
from .weakspace import (
    GlobalDofMap,
    OperatorCache,
    WeakFunction,
    WeakSpaceSignature,
    _grading_depth,
    _singular_corner,
    _VERTEX_TOL,
    project_Qb,
)

__all__ = [
    "SchemeParameters",
    "GlobalSystem",
    "SingularSystem",
    "local_stiffness",
    "local_stabilizer",
    "assemble",
    "solve",
    "dump_system",
]

_PIVOT_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class SchemeParameters:
    """Scheme parameters: stabilizer weight rho h_T^gamma and diffusion tensor.

    coefficient may be None (identity), a constant (2, 2) SPD matrix, or an
    (n_elements, 2, 2) array of per-element SPD matrices.
    """

    rho: float = 1.0
    gamma: float = -1.0
    coefficient: object = None

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"stabilizer weight rho must be non-negative, got {self.rho}")
        if self.coefficient is not None:
            a = np.asarray(self.coefficient, dtype=float)
            if a.shape != (2, 2) and not (a.ndim == 3 and a.shape[1:] == (2, 2)):
                raise ValueError("coefficient must be a (2, 2) matrix or an (n, 2, 2) array")
            if not np.allclose(a, np.swapaxes(a, -1, -2), rtol=0, atol=1e-14):
                raise ValueError("coefficient matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(a)) <= 0:
                raise ValueError("coefficient matrix must be positive definite")
            object.__setattr__(self, "coefficient", a)

    @property
    def is_identity(self) -> bool:
        return self.coefficient is None

    def tensor(self, element: int | None = None) -> np.ndarray:
        if self.coefficient is None:
            return np.eye(2)
        if self.coefficient.ndim == 2:
            return self.coefficient
        if element is None:
            raise ValueError("per-element coefficient requires an element index")
        return self.coefficient[element]


class SingularSystem(RuntimeError):
    """The reduced global matrix is (numerically) singular.

    pivot is the index of the offending diagonal entry in the reduced
    system when known; level/partial are filled in by convergence studies.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.level = None
        self.partial = None


@dataclass
class GlobalSystem:
    """Reduced linear system after eliminating boundary edge coefficients."""

    A: sp.csr_matrix
    b: np.ndarray
    dofmap: GlobalDofMap
    free: np.ndarray
    constrained: np.ndarray
    dirichlet_values: np.ndarray
    mesh: Mesh
    signature: WeakSpaceSignature
    params: SchemeParameters
    cache: OperatorCache


def local_stiffness(
    mesh: Mesh,
    element: int,
    signature: WeakSpaceSignature,
    params: SchemeParameters,
    cache: OperatorCache | None = None,
) -> np.ndarray:
    """(a grad_g ., grad_g .)_T as a matrix on the local coefficient vector."""
    if cache is None:
        cache = OperatorCache(mesh, signature)
    ops = cache.shape_ops(element)
    if params.is_identity:
        return ops.Sxx + ops.Syy
    a = params.tensor(element)
    return a[0, 0] * ops.Sxx + a[0, 1] * (ops.Sxy + ops.Sxy.T) + a[1, 1] * ops.Syy


def local_stabilizer(
    mesh: Mesh,
    element: int,
    signature: WeakSpaceSignature,
    params: SchemeParameters,
    cache: OperatorCache | None = None,
) -> np.ndarray:
    """rho h_T^gamma <Qb v0 - vb, Qb w0 - wb>_{boundary of T} on local coefficients."""
    if cache is None:
        cache = OperatorCache(mesh, signature)
    ops = cache.shape_ops(element)
    return params.rho * ops.h_T**params.gamma * ops.stab_unit


def _boundary_projection(mesh, signature, cache, g, singularity):
    """Qb g on boundary edges, ordered like dofmap.boundary_dofs."""
    nb = signature.edge_dim
    bedges = np.nonzero(mesh.boundary_edge)[0]
    t, w_ref, legendre_vals, _ = cache.edge_data
    p0 = mesh.vertices[mesh.edges[bedges, 0]]
    p1 = mesh.vertices[mesh.edges[bedges, 1]]
    pts = (p0 + p1)[:, None, :] / 2.0 + t[None, :, None] * (p1 - p0)[:, None, :] / 2.0
    values = np.asarray(g(pts.reshape(-1, 2)), dtype=float).reshape(bedges.size, -1)
    lengths = np.linalg.norm(p1 - p0, axis=1)
    moments = ((values * w_ref) @ legendre_vals) * (lengths / 2.0)[:, None]
    coeffs = moments / (lengths[:, None] / (2.0 * np.arange(nb) + 1.0))
    if singularity is not None:
        point = np.asarray(singularity[0], dtype=float)
        hits = np.nonzero(
            (np.linalg.norm(mesh.vertices[mesh.edges[bedges]] - point, axis=2) < _VERTEX_TOL).any(
                axis=1
            )
        )[0]
        for i in hits:
            coeffs[i] = project_Qb(g, mesh, int(bedges[i]), signature.j, singularity=singularity)
    return coeffs.ravel()


def assemble(
    mesh: Mesh,
    signature: WeakSpaceSignature,
    params: SchemeParameters,
    f,
    g,
    *,
    cache: OperatorCache | None = None,
    singularity=None,
) -> GlobalSystem:
    """Assemble the reduced system for -div(a grad u) = f, u = g on the boundary.

    f and g must be vectorized ((n, 2) points -> (n,) values).  singularity,
    if given, is a (point, strength) pair; load moments on elements touching
    the point are integrated with rules graded toward it.
    """
    if cache is None:
        cache = OperatorCache(mesh, signature)
    dm = cache.dofmap
    n0 = signature.interior_dim
    b = np.zeros(dm.total)
    rows_parts, cols_parts, vals_parts = [], [], []

    for ops, elems in cache.classes():
        n_loc = ops.n_loc
        stab = params.rho * ops.h_T**params.gamma * ops.stab_unit
        dofs = dm.element_dof_table[elems]
        rows_parts.append(np.repeat(dofs, n_loc, axis=1).ravel())
        cols_parts.append(np.tile(dofs, (1, n_loc)).ravel())
        if params.is_identity:
            local = ops.Sxx + ops.Syy + stab
            vals_parts.append(np.tile(local.ravel(), elems.size))
        elif params.coefficient.ndim == 2:
            a = params.coefficient
            local = a[0, 0] * ops.Sxx + a[0, 1] * (ops.Sxy + ops.Sxy.T) + a[1, 1] * ops.Syy + stab
            vals_parts.append(np.tile(local.ravel(), elems.size))
        else:
            a = params.coefficient[elems]
            local = (
                a[:, 0, 0, None, None] * ops.Sxx
                + a[:, 0, 1, None, None] * (ops.Sxy + ops.Sxy.T)
                + a[:, 1, 1, None, None] * ops.Syy
                + stab
            )
            vals_parts.append(local.ravel())

        pts = cache.centroids[elems][:, None, :] + ops.data_offsets[None, :, :]
        values = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(elems.size, -1)
        b[dofs[:, :n0]] = (values * ops.data_weights) @ ops.phi_k_data

    if singularity is not None:
        point, strength = np.asarray(singularity[0], dtype=float), float(singularity[1])
        touching = np.nonzero(
            (np.linalg.norm(mesh.vertices[mesh.elements] - point, axis=2) < _VERTEX_TOL).any(axis=1)
        )[0]
        d = max(2 * signature.k, signature.k + 4)
        for e in touching:
            ops = cache.shape_ops(e)
            verts = mesh.vertices[mesh.elements[e]]
            corner = _singular_corner(verts, point)
            pts, w = graded_element_rule(verts, corner, d, _grading_depth(strength, ops.h_T))
            phi = ops.basis.eval(pts - cache.centroids[e])[:, :n0]
            off = dm.interior_offset(int(e))
            b[off : off + n0] = phi.T @ (w * np.asarray(f(pts), dtype=float))

    A = sp.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(dm.total, dm.total),
    ).tocsr()

    dirichlet = _boundary_projection(mesh, signature, cache, g, singularity)
    free, constrained = dm.free_dofs, dm.boundary_dofs
    A_rows = A[free]
    b_free = b[free] - A_rows[:, constrained] @ dirichlet
    return GlobalSystem(
        A=A_rows[:, free].tocsr(),
        b=b_free,
        dofmap=dm,
        free=free,
        constrained=constrained,
        dirichlet_values=dirichlet,
        mesh=mesh,
        signature=signature,
        params=params,
        cache=cache,
    )


def _factor(A):
    """Sparse LU of an SPD matrix: minimum-degree ordering of A^T + A, no row pivoting.

    SuperLU keeps the diagonal pivot unless it is exactly zero, so the
    factorization is a symmetric permutation P A P^T = L U and every pivot of
    an SPD matrix is positive.  Raises RuntimeError when a column has no
    nonzero pivot candidate (exactly singular).
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _pivots(lu) -> np.ndarray:
    """Pivots of a symmetric-mode factorization, indexed like the reduced system."""
    return lu.U.diagonal()[lu.perm_c]


def solve(system: GlobalSystem, method: str = "direct") -> WeakFunction:
    """Solve the reduced system; returns the full weak function u_h.

    method "direct" factors the matrix with a symmetric-mode sparse LU: a
    minimum-degree ordering of A^T + A and no row pivoting, which is stable
    only because the matrix is symmetric positive definite.  A pivot that is
    not positive, or not above _PIVOT_RTOL times the largest pivot, raises
    SingularSystem naming the offending unknown; so does a matrix that is
    exactly singular or not positive definite.  method "cg" uses diagonally
    preconditioned conjugate gradients.  Either way, a solution whose
    residual ||A x - b|| exceeds _RESIDUAL_RTOL * ||b|| raises SingularSystem.
    """
    if method == "direct":
        try:
            lu = _factor(system.A)
        except RuntimeError as err:
            # exactly singular: refactor with a tiny diagonal shift purely to
            # locate the vanishing pivot for the error message
            pivot = None
            scale = np.abs(system.A.data).max() if system.A.nnz else 1.0
            shifted = system.A + 1e-14 * scale * sp.eye(system.A.shape[0])
            try:
                pivot = int(np.argmin(_pivots(_factor(shifted))))
            except RuntimeError:
                pass
            raise SingularSystem(
                f"global system is singular (pivot {pivot}): {err}", pivot=pivot
            ) from err
        # a zero diagonal pivot, which no SPD matrix has, makes SuperLU swap rows
        swapped = np.flatnonzero(lu.perm_r != lu.perm_c)
        if swapped.size:
            pivot = int(swapped[np.argmin(lu.perm_c[swapped])])
            raise SingularSystem(
                f"global system is not positive definite (zero pivot at unknown {pivot})",
                pivot=pivot,
            )
        piv = _pivots(lu)
        if piv.size and piv.min() <= _PIVOT_RTOL * piv.max():
            pivot = int(np.argmin(piv))
            raise SingularSystem(
                f"global system is numerically singular or not positive definite "
                f"(pivot {pivot} is {piv[pivot]:.3e}, largest pivot {piv.max():.3e}); "
                f"an unstabilized family may lack edge control",
                pivot=pivot,
            )
        x = lu.solve(system.b)
    elif method == "cg":
        scale = system.A.diagonal()
        if np.any(scale <= 0):
            raise SingularSystem("global system has a non-positive diagonal entry")
        precond = spla.LinearOperator(system.A.shape, lambda v: v / scale)
        x, info = spla.cg(system.A, system.b, rtol=1e-12, atol=0.0, M=precond)
        if info != 0:
            raise SingularSystem(f"conjugate gradient iteration did not converge (info={info})")
    else:
        raise ValueError(f"unknown solver {method!r}; expected 'direct' or 'cg'")

    residual = np.linalg.norm(system.A @ x - system.b)
    b_norm = np.linalg.norm(system.b)
    if not residual <= _RESIDUAL_RTOL * b_norm:  # also rejects a NaN residual
        raise SingularSystem(
            f"{method} solve failed its residual check: ||A x - b|| = {residual:.3e} "
            f"exceeds {_RESIDUAL_RTOL:g} * ||b|| with ||b|| = {b_norm:.3e}"
        )

    coeffs = np.empty(system.dofmap.total)
    coeffs[system.free] = x
    coeffs[system.constrained] = system.dirichlet_values
    return WeakFunction(system.dofmap, coeffs)


def dump_system(system: GlobalSystem, stream) -> None:
    """Write the reduced matrix as 'row col value' lines (17 significant digits)."""
    coo = system.A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        stream.write(f"{r} {c} {v:.17g}\n")
