"""Manufactured solutions, discrete error norms, and convergence studies.

The error measured is e_h = Qh u - u_h, i.e. the distance to the projection
of the exact solution into the weak space, in three norms:

  * energy:   ( sum_T (a grad_g e, grad_g e)_T + s(e, e) )^(1/2)
  * interior: L2 norm of e0 over the domain
  * edge:     ( sum_T h_T || e_b ||^2_{boundary of T} )^(1/2), interior
              edges counted once per incident element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from ._checks import check_real
from .assembly import SchemeParameters, SingularSystem, _local_matrices, assemble, solve
from .mesh import build_uniform_rectangular, build_uniform_triangular
from .weakspace import OperatorCache, WeakFunction, WeakSpaceSignature, _cache_for, _mv, project_Qh

__all__ = [
    "ManufacturedCase",
    "get_case",
    "lowreg_case",
    "error_function",
    "energy_norm",
    "l2_norm_e0",
    "edge_norm_eb",
    "LevelResult",
    "ErrorReport",
    "run_convergence_study",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with matching source and boundary data.

    u, f, g are vectorized (n, 2) -> (n,).  singularity, if given, is a
    (point, strength) pair: u behaves like r**strength near point, so that
    integration can be graded toward it; point is a finite (x, y), strength finite and > 0.
    """

    name: str
    u: object
    f: object
    g: object
    singularity: tuple | None = None


def _cospi_cospi() -> ManufacturedCase:
    def u(p):
        return np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

    def f(p):
        return 2.0 * np.pi**2 * u(p)

    return ManufacturedCase("cospi_cospi", u, f, u)


def _cospi_sinpi() -> ManufacturedCase:
    def u(p):
        return np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def f(p):
        return 2.0 * np.pi**2 * u(p)

    return ManufacturedCase("cospi_sinpi", u, f, u)


def _x2_cospi() -> ManufacturedCase:
    def u(p):
        return p[:, 0] ** 2 * np.cos(np.pi * p[:, 1])

    def f(p):
        return (np.pi**2 * p[:, 0] ** 2 - 2.0) * np.cos(np.pi * p[:, 1])

    return ManufacturedCase("x2_cospi", u, f, u)


_SMOOTH_CASES = {
    "cospi_cospi": _cospi_cospi,
    "cospi_sinpi": _cospi_sinpi,
    "x2_cospi": _x2_cospi,
}


def lowreg_case(alpha: float) -> ManufacturedCase:
    """u = r^(alpha - 2) x(x-1) y(y-1): in H^(1+alpha-eps) near the origin.

    0 < alpha <= 1.  The solution vanishes on the boundary; the source has
    an r^(alpha-2) singularity at the origin.
    """
    check_real(alpha, "regularity index alpha")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"regularity index alpha must lie in (0, 1], got {alpha}")
    beta = (alpha - 2.0) / 2.0  # u = (x^2 + y^2)^beta * P

    def _pieces(p):
        x, y = p[:, 0], p[:, 1]
        r2 = x * x + y * y
        P = x * (x - 1.0) * y * (y - 1.0)
        return x, y, r2, P

    def u(p):
        x, y, r2, P = _pieces(p)
        out = np.zeros(p.shape[0])
        m = r2 > 0.0
        out[m] = r2[m] ** beta * P[m]
        return out

    def f(p):
        x, y, r2, P = _pieces(p)
        out = np.zeros(p.shape[0])
        m = r2 > 0.0
        lap_P = 2.0 * x * (x - 1.0) + 2.0 * y * (y - 1.0)
        # W = x dP/dx + y dP/dy
        W = x * (2.0 * x - 1.0) * y * (y - 1.0) + y * x * (x - 1.0) * (2.0 * y - 1.0)
        out[m] = -(r2[m] ** beta) * (
            lap_P[m] + (4.0 * beta * W[m] + 4.0 * beta**2 * P[m]) / r2[m]
        )
        return out

    def g(p):
        return np.zeros(p.shape[0])

    return ManufacturedCase("lowreg", u, f, g, singularity=((0.0, 0.0), float(alpha)))


def get_case(name: str, alpha: float | None = None) -> ManufacturedCase:
    """Look up a manufactured case by name; 'lowreg' additionally needs alpha."""
    if name == "lowreg":
        if alpha is None:
            raise ValueError("case 'lowreg' requires the regularity index alpha")
        return lowreg_case(alpha)
    if name not in _SMOOTH_CASES:
        known = ", ".join(sorted(_SMOOTH_CASES) + ["lowreg"])
        raise ValueError(f"unknown case {name!r}; available: {known}")
    if alpha is not None:
        raise ValueError(f"case {name!r} does not take a regularity index")
    return _SMOOTH_CASES[name]()


# ----------------------------------------------------------------- norms


def error_function(case: ManufacturedCase, u_h: WeakFunction, cache: OperatorCache) -> WeakFunction:
    """e_h = Qh u - u_h on the space of u_h."""
    qhu = project_Qh(case.u, cache.mesh, cache.signature, singularity=case.singularity, cache=cache)
    return qhu - u_h


def _local(wf: WeakFunction, cache: OperatorCache, block: slice) -> np.ndarray:
    """Every element's coefficients of wf in block; ValueError unless wf lives on cache's space."""
    _cache_for(wf.dofmap.mesh, wf.dofmap.signature, cache)
    return wf.coeffs[cache.dofmap.element_dof_table[:, block]]


def _norm(v: np.ndarray, Qv: np.ndarray) -> float:
    """(sum_T v_T . Q_T v_T)^(1/2) from every element's local vector v_T and Q_T v_T."""
    return math.sqrt(max(float(np.sum(Qv * v)), 0.0))


def energy_norm(wf: WeakFunction, params: SchemeParameters, cache: OperatorCache) -> float:
    """Scheme energy: (sum_T (a grad_g v, grad_g v)_T + s(v, v))^(1/2)."""
    K, rows, _ = _local_matrices(cache, params)
    v = _local(wf, cache, slice(None))
    return _norm(v, _mv(K, rows, v))


def l2_norm_e0(wf: WeakFunction, cache: OperatorCache) -> float:
    """L2 norm of the interior component over the domain."""
    v = _local(wf, cache, slice(None, cache.signature.interior_dim))
    return _norm(v, v)


def edge_norm_eb(wf: WeakFunction, cache: OperatorCache) -> float:
    """(sum_T h_T ||v_b||^2 over the element boundary)^(1/2)."""
    v = _local(wf, cache, slice(cache.signature.interior_dim, None))
    h, mass = cache.stacks["h_T"], cache.stacks["edge_mass"]
    return _norm(v, np.take(h[:, None] * mass.reshape(h.size, -1), cache.class_ids, axis=0) * v)


# ------------------------------------------------------------- studies


@dataclass(frozen=True)
class LevelResult:
    """Errors of one refinement level; label is the nominal 1/h."""

    label: int
    h_max: float
    n_dofs: int
    energy_err: float
    l2_err: float
    edge_err: float


@dataclass
class ErrorReport:
    """Per-level errors of a convergence study plus observed rates."""

    case_name: str
    mesh_family: str
    signature: WeakSpaceSignature
    params: SchemeParameters
    rows: list = field(default_factory=list)

    def rates(self):
        """Rate triples (energy, l2, edge); None entries on the first row."""
        out = [(None, None, None)]
        for prev, cur in zip(self.rows, self.rows[1:]):
            ratio = math.log(prev.h_max / cur.h_max)
            out.append(
                tuple(
                    math.log(getattr(prev, k) / getattr(cur, k)) / ratio
                    if getattr(prev, k) > 0 and getattr(cur, k) > 0
                    else math.nan
                    for k in ("energy_err", "l2_err", "edge_err")
                )
            )
        return out[: len(self.rows)]

    def final_rates(self):
        return self.rates()[-1] if len(self.rows) > 1 else (None, None, None)


def _mesh_args(mesh_family: str, labels) -> tuple:
    """Check a study's labels; return them as ints and each one's mesh-builder argument.

    Labels are nominal 1/h values: integers, at least two, strictly increasing;
    n subdivisions per side for 'tri', 4*2^L for 'rect' (whose builder takes
    L).  Raises ValueError on a bad family or label, before any mesh is built.
    """
    labels = list(labels)
    real = all(isinstance(v, Real) and not isinstance(v, bool) for v in labels)
    if not (real and all(math.isfinite(v) and int(v) == v for v in labels)):
        raise ValueError(f"refinement levels must be integers, got {labels}")
    labels = [int(v) for v in labels]
    if len(labels) < 2:
        raise ValueError("a convergence study needs at least two refinement levels")
    if any(b <= a for a, b in zip(labels, labels[1:])):
        raise ValueError(f"refinement levels must be strictly increasing, got {labels}")
    if mesh_family == "tri":
        if labels[0] < 1:
            raise ValueError(f"triangular mesh labels must be positive, got {labels[0]}")
        return labels, labels
    if mesh_family != "rect":
        raise ValueError(f"unknown mesh family {mesh_family!r}; expected 'tri' or 'rect'")
    levels = []
    for label in labels:
        level = label.bit_length() - 3
        if level < 0 or label != 4 * 2**level:
            raise ValueError(f"rectangular mesh labels are 4*2^L, got {label}")
        levels.append(level)
    return labels, levels


def run_convergence_study(
    case: ManufacturedCase,
    mesh_family: str,
    levels,
    signature: WeakSpaceSignature,
    params: SchemeParameters,
) -> ErrorReport:
    """Solve the scheme on a refinement sequence and collect error norms.

    levels are nominal 1/h labels (triangular: subdivisions per side;
    rectangular: 4*2^L), strictly increasing, at least two of them.  If a
    level produces a singular system the raised SingularSystem carries the
    offending label (.level) and the completed rows (.partial).
    """
    labels, mesh_args = _mesh_args(mesh_family, levels)
    build = build_uniform_triangular if mesh_family == "tri" else build_uniform_rectangular

    report = ErrorReport(case.name, mesh_family, signature, params)
    for label, arg in zip(labels, mesh_args):
        mesh = build(arg)
        cache = OperatorCache(mesh, signature)
        try:
            system = assemble(
                mesh, signature, params, case.f, case.g, cache=cache, singularity=case.singularity
            )
            u_h = solve(system)
        except SingularSystem as err:
            err.level = label
            err.partial = report
            raise
        e_h = error_function(case, u_h, cache)
        report.rows.append(
            LevelResult(
                label=label,
                h_max=mesh.h_max,
                n_dofs=cache.dofmap.total,
                energy_err=energy_norm(e_h, params, cache),
                l2_err=l2_norm_e0(e_h, cache),
                edge_err=edge_norm_eb(e_h, cache),
            )
        )
    return report
