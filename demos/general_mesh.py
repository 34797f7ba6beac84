"""
A convergence study on general triangulations, where every element is its own shape class.

The uniform meshes have two shapes of triangle, so their local operators
are built twice per mesh.  Here the interior vertices of the uniform
triangulation are moved at random, each coordinate by up to h/10 (fixed
seed), so no two elements are translates of each other: a mesh of 1/h = n
has 2 n^2 shape classes.  OperatorCache builds the local operators of all
of them in one batched pass, and assemble, error_function and the norms
each run one stacked pass over them, so none of these steps loops over the
classes in Python.  The scheme keeps its orders on these meshes.
-div(grad u) = f on the unit square, u = cos(pi x) cos(pi y).
"""
import math
import time

import numpy as np

from gwgfem import (
    Mesh,
    OperatorCache,
    SchemeParameters,
    WeakSpaceSignature,
    assemble,
    build_uniform_triangular,
    edge_norm_eb,
    energy_norm,
    error_function,
    get_case,
    l2_norm_e0,
    solve,
)

case = get_case("cospi_cospi")
params = SchemeParameters(rho=1.0, gamma=-1.0)


def jittered(n, seed=2023):
    """The uniform 1/h = n triangulation, each interior vertex coordinate moved by up to h/10."""
    mesh = build_uniform_triangular(n)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0) & (vertices < 1), axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) / n
    return Mesh(vertices, mesh.elements)


def study(signature):
    print(f"P{signature.k}/P{signature.j}/[P{signature.ell}]^2, rho = 1, gamma = -1")
    head = ("1/h", "classes", "cache s", "asm s", "err s", "energy", "rate", "L2", "rate", "edge", "rate")
    print("%4s %8s %8s %8s %8s %11s %5s %11s %5s %11s %5s" % head)
    previous = None
    for n in (8, 16, 32):
        mesh = jittered(n)
        start = time.perf_counter()
        cache = OperatorCache(mesh, signature)
        cache_s = time.perf_counter() - start
        start = time.perf_counter()
        system = assemble(mesh, signature, params, case.f, case.g, cache=cache)
        assemble_s = time.perf_counter() - start
        u_h = solve(system)
        # the error function and the three norms
        start = time.perf_counter()
        e_h = error_function(case, u_h, cache)
        errors = (energy_norm(e_h, params, cache), l2_norm_e0(e_h, cache), edge_norm_eb(e_h, cache))
        error_s = time.perf_counter() - start
        classes = cache.class_first.size
        cells = ["%4d %8d %8.3f %8.3f %8.3f" % (n, classes, cache_s, assemble_s, error_s)]
        for i, err in enumerate(errors):
            rate = "--" if previous is None else "%.2f" % (
                math.log(previous[1][i] / err) / math.log(previous[0] / mesh.h_max)
            )
            cells.append("%11.3E %5s" % (err, rate))
        print(" ".join(cells))
        previous = (mesh.h_max, errors)
    print()


study(WeakSpaceSignature(1, 2, 2))
study(WeakSpaceSignature(3, 4, 4))
