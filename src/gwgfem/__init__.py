"""Generalized weak Galerkin finite elements on triangular and rectangular meshes.

The package solves the Dirichlet problem -div(a grad u) = f on the unit
square with weak functions {v0, vb}: an interior polynomial of degree k per
element and an edge polynomial of degree j per edge, coupled through a
generalized discrete weak gradient corrected in [P_ell]^2.  Element families
P_k(T)/P_j(dT)/[P_ell(T)]^2 are arbitrary, including the stabilizer-free
choice rho = 0.
"""

from .mesh import (
    Mesh,
    build_uniform_rectangular,
    build_uniform_triangular,
)
from .polybasis import (
    EdgeBasis,
    ElementBasis,
    QuadratureRule,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    monomial_exponents,
)
from .weakspace import (
    GlobalDofMap,
    OperatorCache,
    WeakFunction,
    WeakSpaceSignature,
    project_Qh,
)
from .assembly import (
    GlobalSystem,
    NotConverged,
    SchemeParameters,
    SingularSystem,
    assemble,
    solve,
)
from .verify import (
    ErrorReport,
    LevelResult,
    ManufacturedCase,
    edge_norm_eb,
    energy_norm,
    error_function,
    get_case,
    l2_norm_e0,
    lowreg_case,
    run_convergence_study,
)

__version__ = "0.1.0"
