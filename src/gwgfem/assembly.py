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

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .weakspace import (
    GlobalDofMap,
    OperatorCache,
    WeakFunction,
    WeakSpaceSignature,
    _edge_projection,
    _interior_moments,
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


def _class_matrices(ops, elems, params: SchemeParameters) -> np.ndarray:
    """Local stiffness plus stabilizer of one shape class.

    One (n_loc, n_loc) matrix when the coefficient is constant, or one per
    element of the index array elems, shape (elems.size, n_loc, n_loc), when
    it varies per element.
    """
    local = params.rho * ops.h_T**params.gamma * ops.stab_unit
    if params.is_identity:
        return ops.Sxx + ops.Syy + local
    a = params.coefficient
    if a.ndim == 3:
        a = a[elems]
    return (
        a[..., 0, 0, None, None] * ops.Sxx
        + a[..., 0, 1, None, None] * (ops.Sxy + ops.Sxy.T)
        + a[..., 1, 1, None, None] * ops.Syy
        + local
    )


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
    return _class_matrices(cache.shape_ops(element), element, replace(params, rho=0.0))


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
    return _class_matrices(ops, element, params) - _class_matrices(
        ops, element, replace(params, rho=0.0)
    )


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
    the point, and boundary values on edges touching it, are integrated with
    rules graded toward it.
    """
    if cache is None:
        cache = OperatorCache(mesh, signature)
    dm = cache.dofmap
    b = np.zeros(dm.total)
    b[: dm.n_interior] = _interior_moments(cache, f, singularity).ravel()
    rows_parts, cols_parts, vals_parts = [], [], []
    for ops, elems in cache.classes():
        dofs = dm.element_dof_table[elems]
        rows_parts.append(np.repeat(dofs, ops.n_loc, axis=1).ravel())
        cols_parts.append(np.tile(dofs, (1, ops.n_loc)).ravel())
        local = _class_matrices(ops, elems, params)
        vals_parts.append(np.broadcast_to(local, (elems.size, ops.n_loc, ops.n_loc)).ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(dm.total, dm.total),
    ).tocsr()

    bedges = np.nonzero(mesh.boundary_edge)[0]
    dirichlet = _edge_projection(cache, g, bedges, singularity).ravel()
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


def solve(system: GlobalSystem) -> WeakFunction:
    """Solve the reduced system; returns the full weak function u_h.

    The matrix is factored with a symmetric-mode sparse LU: a minimum-degree
    ordering of A^T + A and no row pivoting, which is stable only because the
    matrix is symmetric positive definite.  A pivot that is not positive, or
    not above _PIVOT_RTOL times the largest pivot, raises SingularSystem
    naming the offending unknown; so does a matrix that is exactly singular
    or not positive definite, and a solution whose residual ||A x - b||
    exceeds _RESIDUAL_RTOL * ||b||.
    """
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

    residual = np.linalg.norm(system.A @ x - system.b)
    b_norm = np.linalg.norm(system.b)
    if not residual <= _RESIDUAL_RTOL * b_norm:  # also rejects a NaN residual
        raise SingularSystem(
            f"solve failed its residual check: ||A x - b|| = {residual:.3e} "
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
