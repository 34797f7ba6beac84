"""Assembly and solution of the stabilized weak Galerkin scheme.

The discrete problem reads: find u_h = {u0, ub} with ub = Qb g on boundary
edges such that

    sum_T (a grad_g u_h, grad_g v)_T
      + sum_T rho h_T^gamma <Qb u0 - ub, Qb v0 - vb>_{boundary of T}
      = sum_T (f, v0)_T

for all v in the homogeneous weak space.  The interior coefficients u0 of
an element couple only to that element's edge coefficients, so assemble
eliminates them element by element (static condensation).  solve runs
conjugate gradients on the SPD system left on the free edge coefficients,
preconditioned by one auxiliary-space V-cycle (see _preconditioner), then
recovers u0 element by element.  rho = 0 (no stabilizer) is admitted;
whether the resulting system is solvable then depends on the degree family,
and a singular interior block or a singular edge system is reported as such
instead of returning garbage.  CG stopping at its iteration cap raises
NotConverged, a SingularSystem that says the system did not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

from ._checks import check_real, real_array
from .mesh import Mesh
from .weakspace import (
    OperatorCache,
    WeakFunction,
    WeakSpaceSignature,
    _cache_for,
    _edge_projection,
    _interior_moments,
    _mv,
)

__all__ = [
    "SchemeParameters",
    "GlobalSystem",
    "SingularSystem",
    "NotConverged",
    "assemble",
    "solve",
]

_PIVOT_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-8
_CG_RTOL = 1e-12
_CG_MAXITER = 1000
_OMEGA = 0.7  # block-Jacobi damping; 2 omega scales the l1-Jacobi sweeps
# largest matrix below level 0 that is factored; a larger one becomes a
# V-cycle level over a coarser vertex set.  At 4096 the 63^2 = 3969 P1
# matrix of tri 64 and finer was factored (12-18 ms, L and U with 94 274
# nonzeros each), and each of its ~20 solves per CG run cost more than an
# l1-Jacobi level of that size; at 2048 the factored P1 matrix is 31^2 = 961.
# 2048 still factors the 47 x 31 = 1457 Q1 matrix of rect levels 4 and 5:
# coarsening that to 345 raises (2,1,3) rho = 0 rect 4 from 10 to 14 CG
# iterations (case cospi_cospi; 10 to 15 with load sin(x + 2y), data xy).
_COARSEST_LU = 2048
# compare-exchange networks that sort the 5 (triangles) or 7 (parallelograms)
# positions of a block row; each sorts all 2^5 or 2^7 inputs of zeros and ones
_SORTING_NETWORKS = {
    5: ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    7: (
        (0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5),
        (3, 4), (1, 2), (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6),
    ),
}


@dataclass(frozen=True)
class SchemeParameters:
    """Scheme parameters: stabilizer weight rho h_T^gamma and diffusion tensor.

    rho must be finite and non-negative, gamma finite.  coefficient may be
    None (identity), a constant (2, 2) SPD matrix, or an (n_elements, 2, 2)
    array of per-element SPD matrices; entries finite, each tensor symmetric
    to 1e-14 times its largest entry.
    """

    rho: float = 1.0
    gamma: float = -1.0
    coefficient: object = None

    def __post_init__(self):
        check_real(self.rho, "stabilizer weight rho")
        check_real(self.gamma, "stabilizer exponent gamma")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(
                f"stabilizer weight rho must be finite and non-negative, got {self.rho}"
            )
        if not math.isfinite(self.gamma):
            raise ValueError(f"stabilizer exponent gamma must be finite, got {self.gamma}")
        if self.coefficient is not None:
            a = real_array(self.coefficient, "coefficient")
            if a.shape != (2, 2) and not (a.ndim == 3 and a.shape[1:] == (2, 2) and len(a)):
                raise ValueError("coefficient must be a (2, 2) matrix or an (n, 2, 2) array")
            if not np.isfinite(a).all():
                raise ValueError("coefficient must be finite")
            asymmetry = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
            if np.any(asymmetry > 1e-14 * np.abs(a).max(axis=(-2, -1))):
                raise ValueError("coefficient matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(a)) <= 0:
                raise ValueError("coefficient matrix must be positive definite")
            object.__setattr__(self, "coefficient", a)


class SingularSystem(RuntimeError):
    """The global matrix is (numerically) singular or not positive definite.

    pivot is the global coefficient index of the offending unknown when
    known.  One block pivot test raises it in two places, with one message:
    a Cholesky pivot not above _PIVOT_RTOL times the block's scale, in an
    element's interior block K00 (raised by assemble; .pivot is an interior
    coefficient) or in an interior edge's diagonal block of the condensed
    system (raised by solve; .pivot is one of system.free).  level/partial
    are filled in by convergence studies.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.level = None
        self.partial = None


class NotConverged(SingularSystem):
    """CG stopped at its iteration cap without reaching its tolerance.

    The system need not be singular: a valid SPD system that converges too
    slowly ends here too.  iterations is the number of CG steps taken and
    ritz the (smallest, largest) Lanczos eigenvalue estimates of the
    preconditioned operator over those steps.
    """

    def __init__(self, message: str, iterations: int, ritz: tuple):
        super().__init__(message)
        self.iterations = iterations
        self.ritz = ritz


@dataclass
class GlobalSystem:
    """Condensed linear system on the free edge coefficients.

    A x = b, A of shape (n_free, n_free), is the SPD system left after
    eliminating, element by element, the interior and boundary edge
    coefficients; x holds the coefficients at the global indices free, the
    interior edges' coefficients in ascending order.  A is a canonical CSR
    matrix with int32 indices, converted once from the block pattern that
    the mesh fixes: block row i, of edge_dim rows, is the i-th interior edge,
    and its column blocks are that edge and the other sides of its two
    elements.  C[e] = K00^-1 K0b, of shape (n_elements, n0, n_loc - n0),
    and y[e] = K00^-1 F0, of shape (n_elements, n0), are element e's, so
    u0 = y - C ub recovers the interior coefficients,
    cache.dofmap.interiors, from the edge coefficients ub.  The boundary
    edge coefficients cache.dofmap.boundary_dofs take dirichlet_values; the
    mesh, signature and dof map are those of cache.
    """

    A: sp.csr_matrix
    b: np.ndarray
    C: np.ndarray
    y: np.ndarray
    free: np.ndarray
    dirichlet_values: np.ndarray
    cache: OperatorCache


def _local_matrices(cache: OperatorCache, params: SchemeParameters):
    """Local stiffness plus stabilizer of every element, as a stack of matrices.

    Returns (K, rows, first): element e's matrix is K[rows[e]], and first[i]
    is the first element with matrix K[i].  One tensor, or none, gives one
    matrix per shape class (rows is cache.class_ids), one tensor per element
    one per element.  Raises ValueError when a per-element coefficient does
    not hold one tensor per element.
    """
    stacks, n = cache.stacks, cache.mesh.n_elements
    a = np.eye(2) if params.coefficient is None else params.coefficient
    if a.shape[:-2] not in ((), (n,)):
        raise ValueError(
            f"per-element coefficient holds {len(a)} tensors, but the mesh has {n} elements"
        )
    a = a.reshape(-1, 2, 2, 1, 1)
    if len(a) > 1:  # owner: the shape class of each matrix
        rows, first, owner = np.arange(n), np.arange(n), cache.class_ids
    else:
        rows, first, owner = cache.class_ids, cache.class_first, slice(None)
    # a_00 Sxx + a_01 (Sxy + Sxy^T) + a_11 Syy + rho h_T^gamma stab_unit, in order
    K = a[:, 0, 0] * stacks["Sxx"][owner]
    Sxy = stacks["Sxy"][owner]
    term = np.add(Sxy, Sxy.swapaxes(1, 2))
    K += np.multiply(a[:, 0, 1], term, out=term)
    K += np.multiply(a[:, 1, 1], stacks["Syy"][owner], out=term)
    local = (params.rho * stacks["h_T"][owner] ** params.gamma)[:, None, None]
    K += np.multiply(local, stacks["stab_unit"][owner], out=term)
    return K, rows, first


def _inverse_cholesky(K, scale, index, block: str):
    """Inverse Cholesky factor of one SPD matrix, or of a stack, K of shape (..., n, n).

    Returns L^-1 with L L^T = K, shaped like K.  Raises SingularSystem when
    the pivot of column col of matrix i (the index along the stack axis; 0
    for one matrix) is not above _PIVOT_RTOL * scale[i] (scale has the
    stack's shape); the message names the block and .pivot is index[i, col],
    that unknown's global coefficient index.

    The factorization runs in structure-of-arrays form: entry (r, c) of L
    and of L^-1 is one contiguous array over the stack, and every step is a
    plain product, difference or quotient of such arrays, where a stacked
    `@` or `np.sum` over the tiny trailing axes loops one matrix at a time.
    Each sum adds its terms in ascending order from zero.  No sum of a 1 x 1
    or 2 x 2 factorization has more than one term, so those results do not
    depend on the order and are bitwise those of a stacked `@`.
    """
    n = K.shape[-1]
    tol = _PIVOT_RTOL * scale
    K = np.moveaxis(K, (-2, -1), (0, 1))  # K[r, c]: entry (r, c) over the stack
    L = [[None] * n for _ in range(n)]  # L[r][c] for r >= c, and likewise L_inv
    L_inv = [[None] * n for _ in range(n)]
    for col in range(n):
        # column col of L and row col of L^-1 from the columns and rows before them
        pivot = K[col, col]
        if col:
            pivot = pivot - sum(L[col][k] * L[col][k] for k in range(col))
        bad = np.flatnonzero(~(pivot > tol))  # also catches NaN
        if bad.size:
            i, unknown = bad[0], int(index[bad[0], col])
            raise SingularSystem(
                f"{block} is singular or not positive definite: its Cholesky pivot at "
                f"coefficient {col} (global index {unknown}) is {np.ravel(pivot)[i]:.3e}, "
                f"not above {np.ravel(tol)[i]:.3e}; an unstabilized family may lack "
                f"control of that coefficient",
                pivot=unknown,
            )
        d = L[col][col] = np.sqrt(pivot)
        for r in range(col + 1, n):
            below = K[r, col]
            if col:
                below = below - sum(L[r][k] * L[col][k] for k in range(col))
            L[r][col] = below / d
        L_inv[col][col] = 1.0 / d
        for j in range(col):
            # (e_col - L[col, j:col] L^-1[j:col, j]) / L[col][col]
            L_inv[col][j] = (0.0 - sum(L[col][k] * L_inv[k][j] for k in range(j, col))) / d
    out = np.zeros(K.shape[2:] + (n, n))
    for r in range(n):
        for c in range(r + 1):
            out[..., r, c] = L_inv[r][c]
    return out


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
    interior load F0, each element adds its Schur complement
    S = Kbb - K0b^T K00^-1 K0b, between free edge coefficients, to A, and
    -K0b^T K00^-1 F0 - S gb to b, gb its edge coefficients of Qb g (zero on
    interior edges).  S and K00^-1 are computed once per matrix of
    _local_matrices, one per shape class unless the coefficient varies per
    element, and gathered per element.  No matrix larger than A is formed:
    _condensed_matrix writes every S into A's block pattern.

    f and g must be vectorized ((n, 2) points -> (n,) finite values); any
    other shape, NaN or infinity raises ValueError naming the function.
    singularity, if given, is a (point, strength) pair; load moments on
    elements touching the point, and boundary values on edges touching it,
    are integrated with rules graded toward it.

    Raises SingularSystem when K00 of some element is singular or not
    positive definite (a Cholesky pivot not above _PIVOT_RTOL times the
    largest diagonal entry of that element's local matrix): the interior
    coefficients of that element alone are then a zero-energy vector of the
    global matrix.  Its .pivot is the global coefficient index of the
    failing interior unknown.  Raises ValueError when cache was built for
    another mesh or signature, or when a per-element coefficient does not
    hold one tensor per element of mesh.
    """
    cache = _cache_for(mesh, signature, cache)
    K, rows, first = _local_matrices(cache, params)
    dm = cache.dofmap
    n0 = signature.interior_dim
    F0 = _interior_moments(cache, f, singularity)
    free = dm.edges(np.arange(dm.total))[~mesh.boundary_edge].ravel()
    bedges = np.flatnonzero(mesh.boundary_edge)
    known = np.zeros(dm.total)  # Qb g on the boundary edges, zero elsewhere
    known[dm.boundary_dofs] = _edge_projection(cache, g, bedges, singularity).ravel()
    position = np.full(dm.total, -1)  # row of each free edge coefficient, -1 for the rest
    position[free] = np.arange(free.size)
    # pivots are measured against the whole local matrix: a K00 that is
    # rounding noise throughout would pass a test against its own diagonal
    scale = np.diagonal(K, axis1=1, axis2=2).max(axis=1)
    L_inv = _inverse_cholesky(
        K[:, :n0, :n0], scale, dm.element_dof_table[first], "the interior block of an element"
    )
    W = L_inv @ K[:, :n0, n0:]
    S = K[:, n0:, n0:] - W.swapaxes(1, 2) @ W
    A = _condensed_matrix(mesh, S, rows)
    L_inv_t = L_inv.swapaxes(1, 2)
    C = np.take(L_inv_t @ W, rows, axis=0)  # K00^-1 K0b
    y = _mv(L_inv_t @ L_inv, rows, F0)  # K00^-1 F0

    edofs = dm.element_dof_table[:, n0:]
    at = position[edofs]
    keep = at >= 0
    load = np.einsum("eji,ej->ei", C, F0)
    # known is zero off the boundary: only elements with a boundary side move S gb
    touch = np.flatnonzero(~keep.all(axis=1))
    load[touch] += _mv(S, rows[touch], known[edofs[touch]])
    b = np.zeros(free.size)
    b -= np.bincount(at[keep], load[keep], minlength=free.size)
    return GlobalSystem(A, b, C, y, free, known[dm.boundary_dofs], cache)


def _condensed_matrix(mesh: Mesh, S, rows) -> sp.csr_matrix:
    """A, the sum of every element's Schur complement S[rows[e]] on _block_pattern(mesh).

    S (R, n nb, n nb), n sides of nb edge coefficients, is taken as (n, n)
    blocks of nb * nb: block (p, q) goes to the slot of side q in the row of
    side p.  An off-diagonal block of A belongs to one element, since two
    elements sharing two edges would traverse one of them twice in the same
    direction, which Mesh rejects; so it is assigned.  A diagonal block sums
    the two elements of its edge, which hold it with opposite signs: one +=
    per sign has distinct targets.  The block matrix is canonical as built.
    """
    n_sides = mesh.element_edges.shape[1]
    nb = S.shape[-1] // n_sides
    indptr, indices, own, other, slot = _block_pattern(mesh)
    blocks = S.reshape(-1, n_sides, nb, n_sides, nb).swapaxes(2, 3)
    blocks = blocks.reshape(-1, n_sides, n_sides, nb * nb)
    # the side pairs (p, (p + d) mod n), d = 1, ..., n - 1, in the order of the
    # positions other[t, p] + d - 1
    p_side = np.arange(n_sides)[:, None]
    q_side = (p_side + np.arange(1, n_sides)) % n_sides
    data = np.zeros((indices.size + 1, nb * nb))  # the last row takes the boundary pairs
    after = np.arange(n_sides - 1, dtype=other.dtype)
    data[slot[other[:, :, None] + after]] = np.take(blocks[:, p_side, q_side], rows, axis=0)
    diagonal = np.take(blocks[:, p_side[:, 0], p_side[:, 0]], rows, axis=0).reshape(-1, nb * nb)
    signs = mesh.element_edge_signs.ravel()
    for sides in (np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)):
        data[slot[own.ravel()[sides]]] += diagonal[sides]
    m = (indptr.size - 1) * nb
    return sp.bsr_matrix((data[:-1].reshape(-1, nb, nb), indices, indptr), shape=(m, m)).tocsr()


def _block_pattern(mesh: Mesh):
    """Block sparsity pattern of the condensed matrix, which the mesh alone fixes.

    Interior edge E is block row (and column) i of A, i its rank among the
    interior edges.  E couples only to the other sides of its two elements,
    so its row has 2 n - 1 positions, n the number of sides: E itself, then
    the sides p + 1, ..., p + n - 1 (mod n) of edge_elements[E, 0], whose
    side p is E, then those of edge_elements[E, 1] likewise.  Each row's
    positions are sorted by column once, and boundary rows and columns are
    dropped by one compaction.

    Returns (indptr, indices, own, other, slot).  indptr and indices are the
    compacted block pattern, sorted within each row, so a block matrix with
    its blocks in pattern order is canonical as built.  own and other are
    shaped like mesh.element_edges: for side p of element t, own[t, p] is
    the position of the diagonal block in that side's row, and
    other[t, p] + d - 1 the position of side (p + d) mod n.  slot maps a
    position to its block of the compacted pattern; positions of boundary
    rows or columns map to indices.size, one past the last block.
    """
    n = mesh.element_edges.shape[1]
    width = 2 * n - 1
    interior = np.flatnonzero(~mesh.boundary_edge)
    m = interior.size
    # int32 throughout, as in A's CSR indices: it halves the memory traffic
    block = np.full(mesh.n_edges, m, dtype=np.int32)  # boundary edges point at one spare row
    block[interior] = np.arange(m, dtype=np.int32)
    sides = block[mesh.element_edges]
    descending = mesh.element_edge_signs < 0  # the side lies in column 1 of edge_elements
    # owner[E, c]: the element side t * n + p that is E, t = edge_elements[E, c]
    owner = np.empty(2 * mesh.n_edges, dtype=np.int64)
    owner[2 * mesh.element_edges.ravel() + descending.ravel()] = np.arange(sides.size)
    # later[t * n + p]: the blocks of sides p + 1, ..., p + n - 1 (mod n) of element t
    later = sides[:, (np.arange(n)[:, None] + np.arange(1, n)) % n].reshape(-1, n - 1)
    others = np.take(later, owner.reshape(-1, 2)[interior], axis=0)
    # key[j, i] = (column << shift) | j for position j of row i: unique within
    # a row and keeping j; the dropped column m gives the keys from dropped
    # on, which sort last
    shift = width.bit_length()
    dropped = m << shift
    key = np.empty((width, m), dtype=np.int32)
    key[0] = np.arange(m, dtype=np.int32)
    key[1:] = others.reshape(m, width - 1).T
    key <<= shift
    key |= np.arange(width, dtype=np.int32)[:, None]
    ranked = list(key)  # ranked[r][i] becomes the r-th smallest key of row i
    for a, b in _SORTING_NETWORKS[width]:
        ranked[a], ranked[b] = np.minimum(ranked[a], ranked[b]), np.maximum(ranked[a], ranked[b])
    # the kept positions of a sorted row come first: row i's blocks are the
    # first indptr[i + 1] - indptr[i], numbered on from indptr[i]
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(sum(k < dropped for k in ranked), out=indptr[1:])
    key = np.stack(ranked, axis=1)
    kept = key < dropped
    # position[i, r]: the position i * width + j whose key is key[i, r]
    position = np.arange(0, m * width, width)[:, None] + (key & (1 << shift) - 1)
    slot = np.full((m + 1) * width, indptr[-1], dtype=np.int32)
    slot[position[kept]] = np.arange(indptr[-1], dtype=np.int32)
    own = sides * width
    other = own + 1 + (n - 1) * descending.astype(np.int32)
    return indptr, key[kept] >> shift, own, other, slot


def _preconditioner(system: GlobalSystem):
    """One symmetric auxiliary-space V-cycle for the edge system, as r -> z.

    This is the auxiliary-space multigrid of Xu (1996) and Chen, Wang, Wang
    and Ye (2015).  Level 0 is the edge system A itself, smoothed by one
    sweep of damped block Jacobi, omega D^-1 with D the per-edge diagonal
    blocks: omega L^-T L^-1 from the inverse Cholesky factors, written
    straight into block-diagonal CSR.  Its transfer P (_edge_transfer) maps
    the conforming P1 (triangles) or Q1 (parallelograms) space on the
    interior vertices (those that an element uses and no boundary edge
    touches) to the edges: the nodal values (a, b) at an edge's vertices
    edges[E, 0] and edges[E, 1] go to the Legendre coefficients
    ((a + b)/2, (b - a)/2, 0, ...) of the linear function between them.
    While the Galerkin matrix R^T A R below a level (R = P below level 0)
    has more than _COARSEST_LU = 2048 unknowns and _coarsen on the mesh's
    vertex graph drops some of them, it becomes the next level, smoothed by
    one sweep of over-relaxed l1 Jacobi, 2 omega / sum_j |a_ij| (Baker,
    Falgout, Kolev and Yang 2011), with R from _coarsen:
    diag(sum_j |a_ij|) - A is positive semidefinite, so 2 omega < 2 keeps
    the sweep an A-norm contraction, and on a zero-sum row with no positive
    off-diagonal entry it is omega / a_ii.  The last matrix is factored (sparse LU); it is
    empty when there is no interior vertex.  Each level smooths once on the
    way down and once, with the same smoother, on the way up, so the cycle
    is symmetric and positive definite.  A smoother that is a diagonal
    (every one below level 0, and level 0's when the edge blocks are 1 x 1)
    is kept as a vector and applied as an elementwise product.

    Raises SingularSystem when a diagonal block has a Cholesky pivot not
    above _PIVOT_RTOL times its largest diagonal entry (.pivot names that
    edge coefficient), or when the coarsest matrix is exactly singular.
    """
    A, mesh = system.A, system.cache.mesh
    nb = system.cache.signature.edge_dim
    n_blocks = A.shape[0] // nb
    index = np.arange(A.shape[0], dtype=np.int32).reshape(n_blocks, nb)
    D = np.zeros((n_blocks, nb, nb))
    if n_blocks:  # sampling no entry at all would return a scalar
        rows, cols = np.repeat(index, nb, axis=1).ravel(), np.tile(index, (1, nb)).ravel()
        D[:] = np.asarray(A[rows, cols]).reshape(D.shape)
    scale = np.diagonal(D, axis1=-2, axis2=-1).max(axis=-1)
    L_inv = _inverse_cholesky(
        D, scale, system.free.reshape(n_blocks, nb), "the diagonal block of an interior edge"
    )
    # omega D^-1, block by block.  Unlike the factorization's steps, this
    # product of whole blocks ran faster stacked than entry by entry at 5 x 5
    # (0.45 against 0.67 ms for 3008 blocks; numpy 2.4.6, 2-core host)
    blocks = _OMEGA * np.swapaxes(L_inv, -1, -2) @ L_inv
    if nb == 1:  # omega D^-1 is a diagonal
        smooth = partial(np.multiply, blocks.ravel())
    else:  # block diagonal: row nb * i + a holds the nb columns of edge i
        indptr = np.arange(0, A.shape[0] * nb + 1, nb)
        smooth = sp.csr_matrix(
            (blocks.ravel(), np.repeat(index, nb, axis=0).ravel(), indptr), shape=A.shape
        ).dot
    R, interior = _edge_transfer(mesh, nb)

    levels, graph = [], None
    while True:
        # R^T stored as CSR restricts faster than scipy's transpose view of R
        Rt, AR = R.T.tocsr(), A @ R
        levels.append((A, smooth, R, Rt, AR))
        A = Rt @ AR
        if A.shape[0] <= _COARSEST_LU:
            break
        if graph is None:
            # vertices that share an element, each with itself: the pattern
            # of E^T E, E the element-vertex incidence
            ne, w = mesh.elements.shape
            E = sp.csr_matrix(
                (np.ones(ne * w), mesh.elements.ravel(), np.arange(0, ne * w + 1, w)),
                shape=(ne, mesh.n_vertices),
            )
            graph = E.T.tocsr() @ E
        R, graph, interior = _coarsen(graph, interior)
        if R.shape[1] == R.shape[0]:  # no unknown dropped: each piece is down to one vertex
            break
        smooth = partial(np.multiply, 2 * _OMEGA / (abs(A) @ np.ones(A.shape[0])))
    try:
        # minimum-degree ordering of A^T + A and no row pivoting: a symmetric
        # permutation, so every pivot of the SPD coarse matrix stays positive
        lu = spla.splu(
            A.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise SingularSystem(f"coarse auxiliary-space matrix is singular: {err}") from err

    def cycle(r):
        down = []  # (x, r - A x) after pre-smoothing, per level
        for A, smooth, _, Rt, _ in levels:
            x = smooth(r)
            res = A @ x
            np.subtract(r, res, out=res)
            down.append((x, res))
            r = Rt @ res
        e = lu.solve(r)
        for (_, smooth, R, _, AR), (x, res) in zip(reversed(levels), reversed(down)):
            x += R @ e
            res -= AR @ e  # r - A (x + R e), with A R kept
            x += smooth(res)
            e = x
        return e

    return cycle


def _edge_transfer(mesh: Mesh, nb: int):
    """The level-0 transfer P from the P1/Q1 nodal values to the edge coefficients.

    Returns (P, interior).  interior masks the vertices that carry an
    unknown: those that an element uses and no boundary edge touches, the
    columns of P in vertex order.  Row nb * i + a of P is Legendre
    coefficient a of the i-th interior edge E: the values (u, v) at
    edges[E, 0] and edges[E, 1] give (u + v)/2 in row 0 and (v - u)/2 in
    row 1, and the rows from 2 on are empty.  P is written straight in
    canonical CSR with int32 indices: the ends of an edge that carry an
    unknown ascend, since edges are ascending pairs.
    """
    # a vertex that no element uses is not an unknown: its column of P
    # would be zero and make the coarsest matrix singular
    interior = np.zeros(mesh.n_vertices, dtype=bool)
    interior[mesh.edges] = True
    interior[mesh.edges[mesh.boundary_edge]] = False
    n_coarse = np.count_nonzero(interior)
    vertex = np.full(mesh.n_vertices, -1, dtype=np.int32)
    vertex[interior] = np.arange(n_coarse, dtype=np.int32)
    ends = vertex[mesh.edges[~mesh.boundary_edge]]  # (n_edges, 2), -1 where no unknown
    weights = np.array([[0.5, 0.5], [-0.5, 0.5]])[: min(nb, 2)]
    cols = np.repeat(ends, len(weights), axis=0)  # both ends, in each row that is not empty
    live = cols >= 0
    counts = np.zeros((ends.shape[0], nb), dtype=np.int32)
    counts[:, : len(weights)] = np.count_nonzero(live, axis=1).reshape(-1, len(weights))
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts.ravel(), out=indptr[1:])
    data = np.tile(weights, (ends.shape[0], 1))[live]
    P = sp.csr_matrix((data, cols[live], indptr), shape=(counts.size, n_coarse))
    return P, interior


def _coarsen(graph, interior):
    """The transfer to the next V-cycle level below P^T A P, from a vertex graph alone.

    graph links each vertex to itself and to its neighbours (an empty row
    for a vertex that no element uses); interior masks the vertices that
    carry an unknown.  The coarse vertices are the first maximal independent
    set in index order, the C/F split of classical AMG (Ruge and Stueben
    1987), and every vertex takes the mean of its coarse neighbours, the
    boundary ones held at zero.  On the builders' grids, numbered row by
    row, that is the grid of half the size and its nodal P1 or Q1
    interpolation.  Returns R (interior vertices x interior coarse
    vertices) in canonical CSR, so each Galerkin product sums in a fixed
    order; the coarse graph, the pattern of S^T S for S the coarse-neighbour
    pattern; and the coarse vertices' interior mask.
    """
    indptr, indices = memoryview(graph.indptr), memoryview(graph.indices)
    marked = bytearray(graph.shape[0])  # the later neighbours of kept vertices
    v = marked.find(0)
    while v >= 0:
        for u in indices[indptr[v] : indptr[v + 1]]:
            if u > v:
                marked[u] = 1
        v = marked.find(0, v + 1)
    coarse = np.flatnonzero(np.frombuffer(marked, dtype=np.uint8) == 0)
    S = graph[:, coarse]
    counts = np.diff(S.indptr)  # zero on the empty row of an unused vertex
    S.data = np.repeat(1.0 / np.maximum(counts, 1), counts)
    coarse_interior = interior[coarse]
    R = S[interior][:, coarse_interior]
    R.sort_indices()
    S.data = np.ones(S.nnz)
    return R, S.T.tocsr() @ S, coarse_interior


def _ritz(alphas, betas):
    """Extreme eigenvalues of the Lanczos tridiagonal matrix of CG's alpha_j, beta_j.

    T = tridiag(sqrt(beta_j)/alpha_j, 1/alpha_j + beta_(j-1)/alpha_(j-1)),
    from the first len(alphas) steps; returns (lam_min, lam_max).
    """
    alphas, betas = np.array(alphas), np.array(betas[: len(alphas) - 1])
    diagonal = 1.0 / alphas
    diagonal[1:] += betas / alphas[:-1]
    ritz = eigvalsh_tridiagonal(diagonal, np.sqrt(betas) / alphas[:-1])
    return ritz[0], ritz[-1]


def _dot(u, v):
    """The inner product u.v of two vectors, summed on the calling thread.

    OpenBLAS's ddot, which u @ v and np.linalg.norm call, splits vectors of
    more than 10 000 entries across its threads; that costs more than the
    sum and makes its rounding depend on the thread count.
    """
    return float(np.einsum("i,i", u, v))


def _pcg(A, b, precondition):
    """Preconditioned CG on the SPD system A x = b, from x = 0.

    Stops when ||r|| <= _CG_RTOL ||b|| for the updated residual r.  Returns
    (x, iterations, (lam_min, lam_max)), the last pair the extreme Ritz
    values of the preconditioned operator from the Lanczos tridiagonal matrix
    that the CG coefficients define (NaN when b = 0 and no iteration runs).
    Raises SingularSystem when a curvature p.Ap or a preconditioned residual
    product r.z is not positive, or when lam_min is not above _PIVOT_RTOL *
    lam_max, and its subclass NotConverged when _CG_MAXITER iterations do
    not converge.  Every inner product and norm is summed on the calling
    thread by _dot, so x does not depend on the BLAS thread count.
    """
    x = np.zeros_like(b)
    r = b.copy()
    target = _CG_RTOL * math.sqrt(_dot(b, b))
    if not target > 0:
        return x, 0, (math.nan, math.nan)
    z = precondition(r)
    rz = _dot(r, z)
    p = z
    alphas, betas = [], []
    for iteration in range(1, _CG_MAXITER + 1):
        if not rz > 0:  # also rejects NaN
            raise SingularSystem(
                f"preconditioned residual product r.z = {rz:.3e} is not positive at "
                f"CG iteration {iteration}; the edge system is not positive definite"
            )
        q = A @ p
        curvature = _dot(p, q)
        if not curvature > 0:
            raise SingularSystem(
                f"curvature p.Ap = {curvature:.3e} is not positive at CG iteration "
                f"{iteration}; the edge system is not positive definite"
            )
        alpha = rz / curvature
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * q
        if math.sqrt(_dot(r, r)) <= target:
            break
        z = precondition(r)
        rz, rz_old = _dot(r, z), rz
        betas.append(rz / rz_old)
        p = z + betas[-1] * p
    else:
        lam_min, lam_max = _ritz(alphas, betas)
        raise NotConverged(
            f"CG did not converge: ||r|| = {math.sqrt(_dot(r, r)):.3e} is above "
            f"{_CG_RTOL:g} ||b|| after {iteration} iterations (extreme Ritz values of "
            f"the preconditioned operator {lam_min:.3e} and {lam_max:.3e})",
            iteration,
            (lam_min, lam_max),
        )
    lam_min, lam_max = _ritz(alphas, betas)
    if not lam_min > _PIVOT_RTOL * lam_max:
        raise SingularSystem(
            f"edge system is numerically singular or not positive definite: the "
            f"preconditioned operator's extreme Ritz values are {lam_min:.3e} and "
            f"{lam_max:.3e}"
        )
    return x, iteration, (lam_min, lam_max)


def solve(system: GlobalSystem) -> WeakFunction:
    """Solve the condensed edge system; returns the full weak function u_h.

    The edge system is solved by conjugate gradients preconditioned with one
    symmetric auxiliary-space V-cycle (_preconditioner), which factors only
    its coarsest matrix.  CG stops at ||r|| <= 1e-12 ||b||.  The interior
    coefficients are then recovered element by element as u0 = y - C ub
    from the solved edge coefficients ub.  A zero load gives x = 0, but CG still
    runs once on a fixed-seed random right-hand side, its solution
    discarded, so the checks below see the matrix.  The inner products of
    CG and of the residual check are summed on the calling thread by _dot,
    so the solution does not depend on the BLAS thread count.

    Raises SingularSystem when the system is singular or not positive
    definite: a per-edge diagonal block whose Cholesky pivot is not above
    _PIVOT_RTOL times its largest diagonal entry (the one block pivot
    message, as for assemble's interior blocks; .pivot is that edge
    coefficient's global index, one of system.free), a coarsest matrix that
    is exactly singular, a non-positive CG curvature or preconditioned
    residual product, or a smallest
    Lanczos eigenvalue estimate not above _PIVOT_RTOL times the largest.  A
    solution whose residual ||A x - b|| exceeds _RESIDUAL_RTOL * ||b||
    raises SingularSystem too.  No convergence within _CG_MAXITER (1000)
    iterations raises its subclass NotConverged, which says "did not
    converge" and carries .iterations and the Lanczos extremes .ritz.
    """
    precondition = _preconditioner(system)
    if np.any(system.b):
        x, _, _ = _pcg(system.A, system.b, precondition)
    else:
        # x = 0 solves a zero load; a probe right-hand side lets CG's
        # curvature and Lanczos checks still see A
        probe = np.random.default_rng(0).standard_normal(system.b.size)
        _pcg(system.A, probe, precondition)
        x = np.zeros_like(system.b)

    residual_vector = system.A @ x - system.b
    residual = math.sqrt(_dot(residual_vector, residual_vector))
    b_norm = math.sqrt(_dot(system.b, system.b))
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
    ub = coeffs[dm.element_dof_table[:, n0:]]
    dm.interiors(coeffs)[:] = system.y - np.einsum("eij,ej->ei", system.C, ub)
    return WeakFunction(dm, coeffs)
