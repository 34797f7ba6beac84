"""
The generalized weak gradient on a single element.

A weak function v = {v0, vb} pairs a polynomial on the element interior
with an independent polynomial on each edge.  Its weak gradient is the
ordinary gradient of v0 plus a correction delta_g v in [P_l]^2 driven by
the mismatch between vb and the trace of v0:

    (delta_g v, psi)_T = <vb - Qb v0, psi . n>_dT   for all psi in [P_l]^2

Two consequences are checked numerically below:
  * when vb is the projected trace of v0 (and j >= k) the correction
    vanishes, so the weak gradient collapses to the classical one;
  * for the projection Qh u of a smooth u, the weak gradient satisfies
    (grad_g Qh u, psi)_T = (grad u, psi)_T + (u - Q0 u, div psi)_T
    for every psi in [P_s]^2 with s = min(j, l).

The operators are read from the cache's stacks, entry class_ids[e] for
element e.  Coefficients are written in each class's orthonormal basis
phi = monomials @ U, the monomials scaled by h_T about the centroid.
"""
import numpy as np

from gwgfem import OperatorCache, WeakSpaceSignature, build_uniform_triangular, project_Qh
from gwgfem.polybasis import ElementBasis, dim_pk, element_quadrature, map_to_element

mesh = build_uniform_triangular(2)
sig = WeakSpaceSignature(k=2, j=2, ell=1)
cache = OperatorCache(mesh, sig)
stacks, ids = cache.stacks, cache.class_ids


def basis(e, pts):
    """The scaled monomials of element e at pts, their gradients, and phi = monomials @ U."""
    monomials = ElementBasis(max(sig.k, sig.m), cache.centroids[e], stacks["h_T"][ids[e]])
    V = monomials.eval(pts)
    return V, monomials.grad(pts), V @ stacks["U"][ids[e]]


def u(p):
    return np.sin(p[:, 0]) * np.exp(p[:, 1])


def grad_u(p):
    return np.column_stack(
        [np.cos(p[:, 0]) * np.exp(p[:, 1]), np.sin(p[:, 0]) * np.exp(p[:, 1])]
    )


wf = project_Qh(u, mesh, sig, cache=cache)

# 1. the correction coefficients of Qh(polynomial of degree <= k) are zero
def quadratic(p):
    return 0.3 + p[:, 0] - 2.0 * p[:, 1] + 0.5 * p[:, 0] * p[:, 1]


wq = project_Qh(quadratic, mesh, sig, cache=cache)
worst = 0.0
for e in range(mesh.n_elements):
    c = wq.coeffs[cache.dofmap.element_dof_table[e]]
    worst = max(worst, float(np.abs(stacks["delta"][ids[e]] @ c).max()))
print("largest correction coefficient on a projected quadratic: %.3e" % worst)

# 2. the projection identity, tested with random psi on every element
rng = np.random.default_rng(3)
dim_s, dim_m, n0 = dim_pk(sig.s), dim_pk(sig.m), sig.interior_dim
rule = element_quadrature("triangle", 2 * (sig.k + sig.m) + 6)
worst = 0.0
for e in range(mesh.n_elements):
    c = wf.coeffs[cache.dofmap.element_dof_table[e]]
    gx, gy = stacks["Gx"][ids[e]] @ c, stacks["Gy"][ids[e]] @ c
    pts, w = map_to_element(rule, mesh.vertices[mesh.elements[e]])
    V, Vg, phi = basis(e, pts)
    # psi in any basis of [P_s]^2: here the monomials
    cs = rng.uniform(-1.0, 1.0, (2, dim_s))
    psi = np.stack([V[:, :dim_s] @ cs[0], V[:, :dim_s] @ cs[1]], axis=1)
    div_psi = Vg[:, :dim_s, 0] @ cs[0] + Vg[:, :dim_s, 1] @ cs[1]
    wg = np.stack([phi[:, :dim_m] @ gx, phi[:, :dim_m] @ gy], axis=1)
    lhs = float((w[:, None] * wg * psi).sum())
    t1 = float((w[:, None] * grad_u(pts) * psi).sum())
    t2 = float((w * (u(pts) - phi[:, :n0] @ c[:n0]) * div_psi).sum())
    worst = max(worst, abs(lhs - t1 - t2) / (abs(t1) + abs(t2)))
print(
    "worst relative residual of the projection identity: %.3e" % worst
    + "  (limited by the quadrature behind Qh for this transcendental u)"
)

# 3. the weak gradient of Qh u approximates grad u (here with exact
# arithmetic replaced by a fine quadrature L2 comparison)
err2, nrm2 = 0.0, 0.0
for e in range(mesh.n_elements):
    c = wf.coeffs[cache.dofmap.element_dof_table[e]]
    pts, w = map_to_element(rule, mesh.vertices[mesh.elements[e]])
    phi = basis(e, pts)[2][:, :dim_m]
    wg = np.stack([phi @ (stacks["Gx"][ids[e]] @ c), phi @ (stacks["Gy"][ids[e]] @ c)], axis=1)
    diff = wg - grad_u(pts)
    err2 += float((w[:, None] * diff**2).sum())
    nrm2 += float((w[:, None] * grad_u(pts) ** 2).sum())
print("relative L2 distance of grad_g Qh u from grad u: %.3e" % np.sqrt(err2 / nrm2))
