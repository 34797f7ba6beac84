"""Assembly and solution of the stabilized weak Galerkin scheme.

The discrete problem reads: find u_h = {u0, ub} with ub = Qb g on boundary
edges such that

    sum_T (a grad_g u_h, grad_g v)_T
      + sum_T rho h_T^gamma <Qb u0 - ub, Qb v0 - vb>_{boundary of T}
      = sum_T (f, v0)_T

for all v in the homogeneous weak space.  The interior coefficients u0 of
an element couple only to that element's edge coefficients, so assemble
eliminates them element by element (static condensation) and solve factors
only the SPD system on the free edge coefficients, then recovers u0 element
by element.  rho = 0 (no stabilizer) is admitted; whether the resulting
system is solvable then depends on the degree family, and a singular
interior block or a singular edge system is reported as such instead of
returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .weakspace import (
    OperatorCache,
    WeakFunction,
    WeakSpaceSignature,
    _cache_for,
    _edge_projection,
    _interior_moments,
)

__all__ = [
    "SchemeParameters",
    "GlobalSystem",
    "SingularSystem",
    "assemble",
    "solve",
    "dump_system",
]

_PIVOT_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class SchemeParameters:
    """Scheme parameters: stabilizer weight rho h_T^gamma and diffusion tensor.

    rho must be finite and non-negative, gamma finite.  coefficient may be
    None (identity), a constant (2, 2) SPD matrix, or an (n_elements, 2, 2)
    array of per-element SPD matrices.
    """

    rho: float = 1.0
    gamma: float = -1.0
    coefficient: object = None

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(
                f"stabilizer weight rho must be finite and non-negative, got {self.rho}"
            )
        if not math.isfinite(self.gamma):
            raise ValueError(f"stabilizer exponent gamma must be finite, got {self.gamma}")
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


class SingularSystem(RuntimeError):
    """The global matrix is (numerically) singular or not positive definite.

    pivot names the offending unknown when known.  Raised by assemble, it is
    the global coefficient index of an interior unknown whose element block
    K00 is singular; raised by solve, it is a position in system.free, the
    unknowns of the condensed system.  level/partial are filled in by
    convergence studies.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.level = None
        self.partial = None


@dataclass
class GlobalSystem:
    """Condensed linear system on the free edge coefficients.

    A x = b is the SPD system left after eliminating every element's
    interior coefficients and the boundary edge coefficients; x holds the
    coefficients at the global indices free.  Per shape class, in the order
    of cache.classes(), C[c] is K00^-1 K0b (one matrix, or one per element
    when the coefficient varies per element), and y[e] = K00^-1 F0 is
    element e's interior load, so u0 = y - C ub recovers the interior
    coefficients from the edge coefficients ub.  The boundary edge
    coefficients cache.dofmap.boundary_dofs take dirichlet_values; the mesh,
    signature and dof map are those of cache.
    """

    A: sp.csr_matrix
    b: np.ndarray
    C: list
    y: np.ndarray
    free: np.ndarray
    dirichlet_values: np.ndarray
    cache: OperatorCache


def _check_coefficient(params: SchemeParameters, mesh: Mesh) -> None:
    """Reject a per-element coefficient that does not hold one tensor per element."""
    a = params.coefficient
    if a is not None and a.ndim == 3 and a.shape[0] != mesh.n_elements:
        raise ValueError(
            f"per-element coefficient holds {a.shape[0]} tensors, "
            f"but the mesh has {mesh.n_elements} elements"
        )


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


def _inverse_cholesky(K, tol):
    """Inverse Cholesky factor of one SPD matrix, or of a stack, K of shape (..., n, n).

    Returns (L^-1, None) with L L^T = K, or (None, (i, col)) when the pivot
    of column col of matrix i (the index along the stack axis; 0 for one
    matrix) is not above tol[i] (tol has the stack's shape).
    """
    n = K.shape[-1]
    L = np.zeros_like(K)
    L_inv = np.zeros_like(K)
    for col in range(n):
        pivot = K[..., col, col] - np.sum(L[..., col, :col] ** 2, axis=-1)
        bad = np.flatnonzero(~(pivot > tol))  # also catches NaN
        if bad.size:
            return None, (int(bad[0]), col)
        L[..., col, col] = np.sqrt(pivot)
        d = L[..., col, col, None]
        below = K[..., col + 1 :, col] - _mv(L[..., col + 1 :, :col], L[..., col, :col])
        L[..., col + 1 :, col] = below / d
        # row col of L^-1 by forward substitution, from the finished row col of L
        done = (L[..., col, None, :col] @ L_inv[..., :col, :])[..., 0, :]
        L_inv[..., col, :] = (np.eye(n)[col] - done) / d
    return L_inv, None


def _mv(M, v):
    """Matrix-vector products over stacks: M (..., p, q), v (..., q) -> (..., p)."""
    return (M @ v[..., None])[..., 0]


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
    """Assemble the condensed system for -div(a grad u) = f, u = g on the boundary.

    The interior coefficients of each element couple only to its own edge
    coefficients, so they are eliminated element by element: with the local
    matrix split as [[K00, K0b], [K0b^T, Kbb]] (interior first) and the
    interior load F0, each element adds the Schur complement
    Kbb - K0b^T K00^-1 K0b to the edge matrix and -K0b^T K00^-1 F0 to the
    edge load.  The full matrix is never formed.  Boundary edge coefficients
    are then eliminated with their Dirichlet values.

    f and g must be vectorized ((n, 2) points -> (n,) values).  singularity,
    if given, is a (point, strength) pair; load moments on elements touching
    the point, and boundary values on edges touching it, are integrated with
    rules graded toward it.

    Raises SingularSystem when K00 of some element is singular or not
    positive definite (a Cholesky pivot not above _PIVOT_RTOL times the
    largest diagonal entry of that element's local matrix): the interior
    coefficients of that element alone are then a zero-energy vector of the
    global matrix.  Its .pivot is the global coefficient index of the
    failing interior unknown.  Raises ValueError when cache was built for
    another mesh or signature, or when a per-element coefficient does not
    hold one tensor per element of mesh.
    """
    _check_coefficient(params, mesh)
    cache = _cache_for(mesh, signature, cache)
    dm = cache.dofmap
    n0 = signature.interior_dim
    n_edge_dofs = dm.total - dm.n_interior
    F0 = _interior_moments(cache, f, singularity)
    b = np.zeros(n_edge_dofs)
    rows_parts, cols_parts, vals_parts, C_parts = [], [], [], []
    y = np.empty_like(F0)
    for ops, elems in cache.classes():
        K = _class_matrices(ops, elems, params)
        K0b, Kbb = K[..., :n0, n0:], K[..., n0:, n0:]
        # pivots are measured against the whole local matrix: a K00 that is
        # rounding noise throughout would pass a test against its own diagonal
        tol = _PIVOT_RTOL * np.diagonal(K, axis1=-2, axis2=-1).max(axis=-1)
        L_inv, failed = _inverse_cholesky(K[..., :n0, :n0], tol)
        if failed is not None:
            stack, col = failed
            element = int(elems[stack])
            pivot = int(dm.element_dof_table[element, col])
            raise SingularSystem(
                f"interior block of element {element} is singular or not positive "
                f"definite (pivot of its interior coefficient {col}, global index "
                f"{pivot}); an unstabilized family may lack interior control",
                pivot=pivot,
            )
        L_inv_t = np.swapaxes(L_inv, -1, -2)
        W = L_inv @ K0b
        Wt = np.swapaxes(W, -1, -2)
        z = _mv(L_inv, F0[elems])
        C_parts.append(L_inv_t @ W)
        y[elems] = _mv(L_inv_t, z)

        edofs = dm.element_dof_table[elems, n0:] - dm.n_interior
        nb_loc = edofs.shape[1]
        rows_parts.append(np.repeat(edofs, nb_loc, axis=1).ravel())
        cols_parts.append(np.tile(edofs, (1, nb_loc)).ravel())
        vals_parts.append(np.broadcast_to(Kbb - Wt @ W, (elems.size, nb_loc, nb_loc)).ravel())
        b -= np.bincount(edofs.ravel(), _mv(Wt, z).ravel(), minlength=n_edge_dofs)
    S = sp.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(n_edge_dofs, n_edge_dofs),
    ).tocsr()

    bedges = np.nonzero(mesh.boundary_edge)[0]
    dirichlet = _edge_projection(cache, g, bedges, singularity).ravel()
    constrained_pos = dm.boundary_dofs - dm.n_interior
    is_free = np.ones(n_edge_dofs, dtype=bool)
    is_free[constrained_pos] = False
    free_pos = np.flatnonzero(is_free)
    S_rows = S[free_pos]
    b_free = b[free_pos] - S_rows[:, constrained_pos] @ dirichlet
    return GlobalSystem(
        A=S_rows[:, free_pos].tocsr(),
        b=b_free,
        C=C_parts,
        y=y,
        free=dm.n_interior + free_pos,
        dirichlet_values=dirichlet,
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
    """Solve the condensed edge system; returns the full weak function u_h.

    The interior coefficients are recovered per shape class as
    u0 = y - C ub from the solved edge coefficients ub.

    The matrix is factored with a symmetric-mode sparse LU: a minimum-degree
    ordering of A^T + A and no row pivoting, which is stable only because the
    matrix is symmetric positive definite.  A pivot that is not positive, or
    not above _PIVOT_RTOL times the largest pivot, raises SingularSystem
    naming the offending unknown by its position in system.free; so does a
    matrix that is exactly singular or not positive definite, and a
    solution whose residual ||A x - b|| exceeds _RESIDUAL_RTOL * ||b||.
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

    dm = system.cache.dofmap
    n0 = system.cache.signature.interior_dim
    coeffs = np.empty(dm.total)
    coeffs[system.free] = x
    coeffs[dm.boundary_dofs] = system.dirichlet_values
    u0 = coeffs[: dm.n_interior].reshape(-1, n0)  # a view: writes fill coeffs
    for (_, elems), C in zip(system.cache.classes(), system.C):
        u0[elems] = system.y[elems] - _mv(C, coeffs[dm.element_dof_table[elems, n0:]])
    return WeakFunction(dm, coeffs)


def dump_system(system: GlobalSystem, stream) -> None:
    """Write the condensed matrix A as 'row col value' lines (17 significant digits).

    Rows and columns are positions in system.free, as in A itself.
    """
    coo = system.A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        stream.write(f"{r} {c} {v:.17g}\n")
