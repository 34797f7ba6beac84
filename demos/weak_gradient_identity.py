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
"""
import numpy as np

from gwgfem import OperatorCache, WeakSpaceSignature, build_uniform_triangular, project_Qh
from gwgfem.polybasis import dim_pk, element_quadrature, map_to_element

mesh = build_uniform_triangular(2)
sig = WeakSpaceSignature(k=2, j=2, ell=1)
cache = OperatorCache(mesh, sig)


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
    ops = cache.shape_ops(e)
    c = wq.coeffs[cache.dofmap.element_dof_table[e]]
    worst = max(worst, float(np.abs(ops.delta @ c).max()))
print("largest correction coefficient on a projected quadratic: %.3e" % worst)

# 2. the projection identity, tested with random psi on every element
rng = np.random.default_rng(3)
dim_s, dim_m, n0 = dim_pk(sig.s), dim_pk(sig.m), sig.interior_dim
rule = element_quadrature("triangle", 2 * (sig.k + sig.m) + 6)
worst = 0.0
for e in range(mesh.n_elements):
    ops = cache.shape_ops(e)
    c = wf.coeffs[cache.dofmap.element_dof_table[e]]
    gx, gy = ops.Gx @ c, ops.Gy @ c
    pts, w = map_to_element(rule, mesh.vertices[mesh.elements[e]])
    V = ops.basis.eval(pts - cache.centroids[e])
    Vg = ops.basis.grad(pts - cache.centroids[e])
    cs = rng.uniform(-1.0, 1.0, (2, dim_s))
    psi = np.stack([V[:, :dim_s] @ cs[0], V[:, :dim_s] @ cs[1]], axis=1)
    div_psi = Vg[:, :dim_s, 0] @ cs[0] + Vg[:, :dim_s, 1] @ cs[1]
    wg = np.stack([V[:, :dim_m] @ gx, V[:, :dim_m] @ gy], axis=1)
    lhs = float((w[:, None] * wg * psi).sum())
    t1 = float((w[:, None] * grad_u(pts) * psi).sum())
    t2 = float((w * (u(pts) - V[:, :n0] @ c[:n0]) * div_psi).sum())
    worst = max(worst, abs(lhs - t1 - t2) / (abs(t1) + abs(t2)))
print(
    "worst relative residual of the projection identity: %.3e" % worst
    + "  (limited by the quadrature behind Qh for this transcendental u)"
)

# 3. the weak gradient of Qh u approximates grad u (here with exact
# arithmetic replaced by a fine quadrature L2 comparison)
err2, nrm2 = 0.0, 0.0
for e in range(mesh.n_elements):
    ops = cache.shape_ops(e)
    c = wf.coeffs[cache.dofmap.element_dof_table[e]]
    pts, w = map_to_element(rule, mesh.vertices[mesh.elements[e]])
    V = ops.basis.eval(pts - cache.centroids[e])
    wg = np.stack([V[:, :dim_m] @ (ops.Gx @ c), V[:, :dim_m] @ (ops.Gy @ c)], axis=1)
    diff = wg - grad_u(pts)
    err2 += float((w[:, None] * diff**2).sum())
    nrm2 += float((w[:, None] * grad_u(pts) ** 2).sum())
print("relative L2 distance of grad_g Qh u from grad u: %.3e" % np.sqrt(err2 / nrm2))
